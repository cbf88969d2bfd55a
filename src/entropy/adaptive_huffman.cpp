#include "entropy/adaptive_huffman.hpp"

namespace dtse::entropy {

namespace {
constexpr int kRootLocal = AdaptiveHuffmanBank::kNodesPerCoder - 1;  // 126
}

AdaptiveHuffmanBank::AdaptiveHuffmanBank(trace::Recorder* recorder)
    : weight_(recorder, "huff_weight", kTotalNodes, 20),
      parent_(recorder, "huff_parent", kTotalNodes, 10),
      left_(recorder, "huff_left", kTotalNodes, 10),
      right_(recorder, "huff_right", kTotalNodes, 10),
      leaf_(recorder, "huff_leaf", kCoders * kSymbols, 10),
      code_stack_(recorder, "code_stack", kSymbols, 6) {
  reset();
}

bool AdaptiveHuffmanBank::is_leaf(std::uint32_t node_payload) const {
  return (node_payload & kLeafTag) != 0;
}

void AdaptiveHuffmanBank::reset() {
  for (int coder = 0; coder < kCoders; ++coder) prime_slice(coder);
}

void AdaptiveHuffmanBank::prime_slice(int coder) {
  code_length_valid_[static_cast<std::size_t>(coder)] = false;
  const std::size_t base = static_cast<std::size_t>(coder) * kNodesPerCoder;
  // Leaves first (weight 1), then internal levels pairing consecutive nodes;
  // this numbering is non-decreasing in weight, so the sibling property
  // holds by construction.
  for (int s = 0; s < kSymbols; ++s) {
    weight_.write(base + static_cast<std::size_t>(s), 1);
    left_.write(base + static_cast<std::size_t>(s),
                kLeafTag | static_cast<std::uint32_t>(s));
    right_.write(base + static_cast<std::size_t>(s), 0);
    leaf_.write(static_cast<std::size_t>(coder) * kSymbols + static_cast<std::size_t>(s),
                static_cast<std::uint32_t>(s));
  }
  int level_begin = 0;
  int level_count = kSymbols;
  int next = kSymbols;
  std::uint32_t level_weight = 2;
  while (level_count > 1) {
    for (int j = 0; j < level_count / 2; ++j) {
      const int node = next + j;
      const int child0 = level_begin + 2 * j;
      const int child1 = level_begin + 2 * j + 1;
      weight_.write(base + static_cast<std::size_t>(node), level_weight);
      left_.write(base + static_cast<std::size_t>(node),
                  static_cast<std::uint32_t>(child0));
      right_.write(base + static_cast<std::size_t>(node),
                   static_cast<std::uint32_t>(child1));
      parent_.write(base + static_cast<std::size_t>(child0),
                    static_cast<std::uint32_t>(node));
      parent_.write(base + static_cast<std::size_t>(child1),
                    static_cast<std::uint32_t>(node));
    }
    level_begin = next;
    next += level_count / 2;
    level_count /= 2;
    level_weight *= 2;
  }
  parent_.write(base + kRootLocal, kNoNode);
}

void AdaptiveHuffmanBank::encode(int coder, int symbol, BitWriter& writer) {
  DTSE_CHECK(coder >= 0 && coder < kCoders, "coder index out of range");
  DTSE_CHECK(symbol >= 0 && symbol < kSymbols, "symbol out of range");
  const std::size_t base = static_cast<std::size_t>(coder) * kNodesPerCoder;

  // Collect the path bits leaf -> root on the code stack, then emit them in
  // root -> leaf order.
  std::uint32_t node =
      leaf_.read(static_cast<std::size_t>(coder) * kSymbols +
                 static_cast<std::size_t>(symbol));
  int depth = 0;
  while (node != kRootLocal) {
    const std::uint32_t up = parent_.read(base + node);
    const int bit = left_.read(base + up) == node ? 0 : 1;
    code_stack_.write(static_cast<std::size_t>(depth++), static_cast<std::uint32_t>(bit));
    node = up;
  }
  while (depth > 0) {
    writer.put(code_stack_.read(static_cast<std::size_t>(--depth)), 1);
  }
  update(coder, symbol);
}

int AdaptiveHuffmanBank::decode(int coder, BitReader& reader) {
  DTSE_CHECK(coder >= 0 && coder < kCoders, "coder index out of range");
  const std::size_t base = static_cast<std::size_t>(coder) * kNodesPerCoder;
  std::uint32_t node = kRootLocal;
  for (;;) {
    const std::uint32_t payload = left_.read(base + node);
    if (is_leaf(payload)) {
      const int symbol = static_cast<int>(payload & (kLeafTag - 1));
      update(coder, symbol);
      return symbol;
    }
    node = reader.get_bit() == 0 ? payload : right_.read(base + node);
  }
}

int AdaptiveHuffmanBank::code_length(int coder, int symbol) const {
  DTSE_CHECK(coder >= 0 && coder < kCoders, "coder index out of range");
  DTSE_CHECK(symbol >= 0 && symbol < kSymbols, "symbol out of range");
  if (!code_length_valid_[static_cast<std::size_t>(coder)]) rebuild_code_lengths(coder);
  return code_length_cache_[static_cast<std::size_t>(coder) * kSymbols +
                            static_cast<std::size_t>(symbol)];
}

void AdaptiveHuffmanBank::rebuild_code_lengths(int coder) const {
  const std::size_t base = static_cast<std::size_t>(coder) * kNodesPerCoder;
  const auto& left = left_.raw();
  const auto& right = right_.raw();
  // The sibling property orders weights non-decreasingly by node index and a
  // parent's weight strictly exceeds each child's, so a parent always sits at
  // a higher index: one top-down sweep propagates depths to every leaf.
  std::array<std::uint8_t, kNodesPerCoder> depth{};
  for (int n = kRootLocal; n >= 0; --n) {
    const auto payload = left[base + static_cast<std::size_t>(n)];
    if (is_leaf(payload)) {
      code_length_cache_[static_cast<std::size_t>(coder) * kSymbols +
                         (payload & (kLeafTag - 1))] = depth[static_cast<std::size_t>(n)];
    } else {
      const auto d = static_cast<std::uint8_t>(depth[static_cast<std::size_t>(n)] + 1);
      depth[payload] = d;
      depth[right[base + static_cast<std::size_t>(n)]] = d;
    }
  }
  code_length_valid_[static_cast<std::size_t>(coder)] = true;
}

void AdaptiveHuffmanBank::update(int coder, int symbol) {
  code_length_valid_[static_cast<std::size_t>(coder)] = false;
  const std::size_t base = static_cast<std::size_t>(coder) * kNodesPerCoder;
  std::uint32_t q =
      leaf_.read(static_cast<std::size_t>(coder) * kSymbols +
                 static_cast<std::size_t>(symbol));

  while (q != kRootLocal) {
    const std::uint32_t w = weight_.read(base + q);
    // Block leader: the highest-numbered node with the same weight.  The
    // parent is never in the block (its weight includes a sibling >= 1).
    std::uint32_t leader = q;
    while (leader + 1 < kRootLocal && weight_.read(base + leader + 1) == w) ++leader;

    if (leader != q && leader != parent_.read(base + q)) {
      // Swap node contents; positions keep their parents and weights.
      const std::uint32_t lq = left_.read(base + q);
      const std::uint32_t rq = right_.read(base + q);
      const std::uint32_t ll = left_.read(base + leader);
      const std::uint32_t rl = right_.read(base + leader);
      left_.write(base + q, ll);
      right_.write(base + q, rl);
      left_.write(base + leader, lq);
      right_.write(base + leader, rq);

      auto rehome = [&](std::uint32_t payload, std::uint32_t right_child,
                        std::uint32_t new_pos) {
        if (is_leaf(payload)) {
          leaf_.write(static_cast<std::size_t>(coder) * kSymbols +
                          (payload & (kLeafTag - 1)),
                      new_pos);
        } else {
          parent_.write(base + payload, new_pos);
          parent_.write(base + right_child, new_pos);
        }
      };
      rehome(lq, rq, leader);  // q's subtree now sits at `leader`
      rehome(ll, rl, q);       // leader's subtree now sits at `q`
      q = leader;
    }
    weight_.write(base + q, w + 1);
    q = parent_.read(base + q);
  }
  const std::uint32_t root_weight = weight_.read(base + kRootLocal) + 1;
  weight_.write(base + kRootLocal, root_weight);
  if (root_weight >= kRescaleWeight) prime_slice(coder);
}

bool AdaptiveHuffmanBank::invariants_hold() const {
  for (int coder = 0; coder < kCoders; ++coder) {
    const std::size_t base = static_cast<std::size_t>(coder) * kNodesPerCoder;
    for (int n = 0; n + 1 < kNodesPerCoder; ++n) {
      if (weight_.raw()[base + static_cast<std::size_t>(n)] >
          weight_.raw()[base + static_cast<std::size_t>(n) + 1]) {
        return false;  // sibling-property ordering violated
      }
    }
    for (int n = kSymbols; n < kNodesPerCoder; ++n) {
      const auto l = left_.raw()[base + static_cast<std::size_t>(n)];
      const auto r = right_.raw()[base + static_cast<std::size_t>(n)];
      if ((l & kLeafTag) != 0) continue;  // a leaf swapped into this slot
      const auto wl = weight_.raw()[base + l];
      const auto wr = weight_.raw()[base + r];
      if (weight_.raw()[base + static_cast<std::size_t>(n)] != wl + wr) return false;
    }
  }
  return true;
}

}  // namespace dtse::entropy
