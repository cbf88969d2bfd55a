// Adaptive Huffman coding (FGK) over instrumented arrays.
//
// BTPC codes prediction residuals with six adaptive Huffman coders selected
// by a neighbourhood-pattern context [Robinson, IEEE TIP 1997].  This is a
// bank of FGK coders sharing four node arrays (weight / parent / left /
// right) plus a symbol->leaf map, each coder occupying a fixed slice — the
// array set matches the paper's demonstrator, where the widest array (the
// 20-bit one) holds the Huffman weights.
//
// Design choices:
//  * all symbols are primed with weight 1 (no NYT escape), so the tree has a
//    fixed node count and both sides stay in sync trivially;
//  * alphabet of 64 symbols: folded residuals 0..62 plus ESCAPE (63), which
//    is followed by the 9-bit raw folded residual;
//  * when a tree's root weight hits a threshold the slice is re-primed,
//    bounding the 20-bit weights.
//
// The implementation maintains the FGK sibling property: node indices
// within a slice are ordered by non-decreasing weight, and on every
// increment a node is first swapped with its weight-block leader.
#pragma once

#include <array>
#include <cstdint>

#include "entropy/bitstream.hpp"
#include "trace/instrumented_array.hpp"

namespace dtse::entropy {

/// Bank of `kCoders` FGK coders over shared (optionally instrumented) arrays.
class AdaptiveHuffmanBank {
 public:
  static constexpr int kCoders = 6;
  static constexpr int kSymbols = 64;            ///< 63 residual bins + escape
  static constexpr int kEscape = kSymbols - 1;
  static constexpr int kNodesPerCoder = 2 * kSymbols - 1;  // 127
  static constexpr int kTotalNodes = kCoders * kNodesPerCoder;
  static constexpr std::uint32_t kRescaleWeight = 1u << 18;  ///< fits 20 bits with slack

  /// With a non-null `recorder` the bank registers its arrays under the
  /// demonstrator's array names (huff_weight, huff_parent, ...); accesses
  /// count toward whichever IterationScope is active.
  explicit AdaptiveHuffmanBank(trace::Recorder* recorder = nullptr);

  /// Re-primes every coder (all weights 1, balanced shape).
  void reset();

  /// Encodes `symbol` with coder `coder` and updates the model.
  void encode(int coder, int symbol, BitWriter& writer);

  /// Decodes one symbol with coder `coder` and updates the model.
  [[nodiscard]] int decode(int coder, BitReader& reader);

  /// Code length (bits) `symbol` would currently cost — rate estimation.
  /// Served from a per-coder cached table that is rebuilt lazily (one
  /// top-down sweep of the slice) after the model changed, so sweeping the
  /// whole alphabet costs one tree walk instead of one per symbol.  The
  /// rebuild reads the raw arrays: rate estimation is a tool-side query, not
  /// demonstrator memory traffic, so it stays out of the access profile.
  /// Despite being const, the lazy rebuild mutates the cache — a bank must
  /// not be queried from multiple threads concurrently (nor is it anywhere:
  /// the parallel sweeps share Application models, never coder banks).
  [[nodiscard]] int code_length(int coder, int symbol) const;

  /// Verifies the FGK sibling property of every slice (test support).
  [[nodiscard]] bool invariants_hold() const;

 private:
  void prime_slice(int coder);
  void update(int coder, int symbol);
  void rebuild_code_lengths(int coder) const;
  [[nodiscard]] bool is_leaf(std::uint32_t node_payload) const;

  static constexpr std::uint32_t kNoNode = 0x3FFu;        ///< parent sentinel
  static constexpr std::uint32_t kLeafTag = 0x200u;       ///< left[] tag for leaves

  // Arrays are sized kTotalNodes (node-indexed) / kCoders*kSymbols (leaf map).
  trace::InstrumentedArray<std::uint32_t> weight_;
  trace::InstrumentedArray<std::uint32_t> parent_;
  trace::InstrumentedArray<std::uint32_t> left_;
  trace::InstrumentedArray<std::uint32_t> right_;
  trace::InstrumentedArray<std::uint32_t> leaf_;
  trace::InstrumentedArray<std::uint32_t> code_stack_;

  mutable std::array<std::uint8_t, kCoders * kSymbols> code_length_cache_{};
  mutable std::array<bool, kCoders> code_length_valid_{};
};

/// Folds a signed residual into the coder's symbol space: zigzag mapping
/// with saturation into the escape bin.
[[nodiscard]] constexpr int fold_residual(int residual) {
  return residual >= 0 ? 2 * residual : -2 * residual - 1;
}

[[nodiscard]] constexpr int unfold_residual(int folded) {
  return (folded % 2 == 0) ? folded / 2 : -(folded + 1) / 2;
}

}  // namespace dtse::entropy
