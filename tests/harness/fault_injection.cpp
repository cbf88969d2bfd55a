#include "harness/fault_injection.hpp"

#include <algorithm>

#include "btpc/codec.hpp"
#include "hyperspec/codec.hpp"
#include "persist/app_container.hpp"

namespace dtse::testing {

const char* to_string(MutationKind kind) {
  switch (kind) {
    case MutationKind::kBitFlip: return "bit-flip";
    case MutationKind::kMultiBitFlip: return "multi-bit-flip";
    case MutationKind::kTruncate: return "truncate";
    case MutationKind::kHeaderFuzz: return "header-fuzz";
    case MutationKind::kSplice: return "splice";
    case MutationKind::kRandom: return "random";
    case MutationKind::kByteSwap: return "byte-swap";
    case MutationKind::kSectionSplice: return "section-splice";
  }
  return "?";
}

const char* to_string(DecodeOutcome outcome) {
  switch (outcome) {
    case DecodeOutcome::kBitExact: return "bit-exact";
    case DecodeOutcome::kCleanError: return "clean-error";
    case DecodeOutcome::kBoundedOutput: return "bounded-output";
    case DecodeOutcome::kViolation: return "VIOLATION";
  }
  return "?";
}

std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& bytes,
                                 MutationKind kind, std::uint64_t seed,
                                 std::size_t header_bytes) {
  support::Rng rng(seed);
  std::vector<std::uint8_t> out = bytes;
  if (bytes.empty() && kind != MutationKind::kRandom) return out;
  switch (kind) {
    case MutationKind::kBitFlip: {
      const auto bit = rng.below(out.size() * 8);
      out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      break;
    }
    case MutationKind::kMultiBitFlip: {
      const auto flips = 2 + rng.below(63);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const auto bit = rng.below(out.size() * 8);
        out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case MutationKind::kTruncate: {
      out.resize(rng.below(out.size()));
      break;
    }
    case MutationKind::kHeaderFuzz: {
      const auto region = std::min(header_bytes, out.size());
      if (region == 0) break;
      const auto edits = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < edits; ++i) {
        // XOR with a non-zero byte so every edit actually changes the header.
        out[rng.below(region)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      break;
    }
    case MutationKind::kSplice: {
      const auto span = 1 + rng.below(std::min<std::uint64_t>(16, out.size()));
      const auto src = rng.below(out.size() - span + 1);
      const auto dst = rng.below(out.size() - span + 1);
      std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(src), span,
                  out.begin() + static_cast<std::ptrdiff_t>(dst));
      break;
    }
    case MutationKind::kRandom: {
      out.assign(1 + rng.below(bytes.size() * 2 + 16), 0);
      for (auto& byte : out) byte = static_cast<std::uint8_t>(rng.below(256));
      break;
    }
    case MutationKind::kByteSwap: {
      // A torn out-of-order write: two bytes land at each other's offsets.
      const auto a = rng.below(out.size());
      const auto b = rng.below(out.size());
      std::swap(out[a], out[b]);
      break;
    }
    case MutationKind::kSectionSplice: {
      // Two disjoint equal-length spans exchanged — a file whose sections
      // were written in the wrong order (or interleaved by two writers).
      if (out.size() < 2) break;
      const auto span = 1 + rng.below(std::min<std::uint64_t>(32, out.size() / 2));
      const auto a = rng.below(out.size() - 2 * span + 1);
      const auto b = a + span + rng.below(out.size() - a - 2 * span + 1);
      std::swap_ranges(out.begin() + static_cast<std::ptrdiff_t>(a),
                       out.begin() + static_cast<std::ptrdiff_t>(a + span),
                       out.begin() + static_cast<std::ptrdiff_t>(b));
      break;
    }
  }
  if (out == bytes && !out.empty()) {
    // Degenerate draw (e.g. a splice onto itself): force a visible change so
    // every probe exercises a genuinely corrupted container.
    out[0] ^= 0x01u;
  }
  return out;
}

namespace {

/// Shared probe skeleton: `decode(bytes)` must give a payload or a clean
/// Status; anything escaping as an exception is a contract violation.
template <typename DecodeFn, typename PayloadEq>
[[nodiscard]] DecodeOutcome probe_with(const std::vector<std::uint8_t>& bytes,
                                       const std::vector<std::uint8_t>& pristine,
                                       DecodeFn&& decode, PayloadEq&& equals) {
  try {
    auto corrupt = decode(bytes);
    if (!corrupt.ok()) return DecodeOutcome::kCleanError;
    auto reference = decode(pristine);
    if (reference.ok() && equals(corrupt.value(), reference.value())) {
      return DecodeOutcome::kBitExact;
    }
    // try_decode's geometry caps already bound the payload, so any other
    // successful decode is the "bounded distortion" arm of the trichotomy.
    return DecodeOutcome::kBoundedOutput;
  } catch (...) {
    return DecodeOutcome::kViolation;
  }
}

}  // namespace

DecodeOutcome probe_btpc(const std::vector<std::uint8_t>& bytes,
                         const std::vector<std::uint8_t>& pristine) {
  const auto decode =
      [](const std::vector<std::uint8_t>& container) -> support::Result<support::Image> {
    auto encoded = btpc::try_deserialize(container);
    if (!encoded.ok()) return encoded.status();
    return btpc::Decoder{}.try_decode(encoded.value());
  };
  return probe_with(bytes, pristine, decode,
                    [](const support::Image& a, const support::Image& b) { return a == b; });
}

DecodeOutcome probe_hyperspec(const std::vector<std::uint8_t>& bytes,
                              const std::vector<std::uint8_t>& pristine) {
  const auto decode =
      [](const std::vector<std::uint8_t>& container) -> support::Result<hyperspec::Cube> {
    auto encoded = hyperspec::try_deserialize(container);
    if (!encoded.ok()) return encoded.status();
    return hyperspec::Decoder{}.try_decode(encoded.value());
  };
  return probe_with(bytes, pristine, decode,
                    [](const hyperspec::Cube& a, const hyperspec::Cube& b) { return a == b; });
}

DecodeOutcome probe_app(const std::vector<std::uint8_t>& bytes,
                        const std::vector<std::uint8_t>& pristine) {
  const auto decode = [](const std::vector<std::uint8_t>& container)
      -> support::Result<ir::Application> {
    return persist::try_deserialize_application(container);
  };
  // Canonical-form equality: the container format guarantees an accepted
  // model re-serializes to identical bytes, so comparing the round-tripped
  // encodings compares the models.
  return probe_with(bytes, pristine, decode,
                    [](const ir::Application& a, const ir::Application& b) {
                      return persist::serialize(a) == persist::serialize(b);
                    });
}

std::string CampaignReport::summary() const {
  std::string text = std::to_string(probes) + " probes: " + std::to_string(bit_exact) +
                     " bit-exact, " + std::to_string(clean_errors) + " clean errors, " +
                     std::to_string(bounded_outputs) + " bounded outputs, " +
                     std::to_string(violations.size()) + " violations";
  for (const auto& line : violations) {
    text += "\n  ";
    text += line;
  }
  return text;
}

namespace {

void record(CampaignReport& report, DecodeOutcome outcome, const std::string& what) {
  ++report.probes;
  switch (outcome) {
    case DecodeOutcome::kBitExact: ++report.bit_exact; break;
    case DecodeOutcome::kCleanError: ++report.clean_errors; break;
    case DecodeOutcome::kBoundedOutput: ++report.bounded_outputs; break;
    case DecodeOutcome::kViolation: report.violations.push_back(what); break;
  }
}

}  // namespace

CampaignReport run_campaign(ProbeFn probe, const std::vector<std::uint8_t>& pristine,
                            std::size_t header_bytes, std::uint64_t base_seed,
                            std::uint64_t seeded_mutations) {
  CampaignReport report;

  // Truncation at every byte of the header, then every 16-bit word boundary
  // of the payload — the "stream ends here" sweep a real channel drop makes.
  for (std::size_t len = 0; len < pristine.size();
       len += (len < header_bytes ? 1 : 2)) {
    const std::vector<std::uint8_t> cut(pristine.begin(),
                                        pristine.begin() + static_cast<std::ptrdiff_t>(len));
    record(report, probe(cut, pristine), "truncate@" + std::to_string(len));
  }

  // Degenerate constant containers of the pristine length.
  const std::vector<std::uint8_t> zeros(pristine.size(), 0x00);
  const std::vector<std::uint8_t> ones(pristine.size(), 0xFF);
  record(report, probe(zeros, pristine), "all-zeros");
  record(report, probe(ones, pristine), "all-ones");

  // Seed-driven mutation battery cycling through every kind.
  constexpr MutationKind kKinds[] = {
      MutationKind::kBitFlip,  MutationKind::kMultiBitFlip,
      MutationKind::kTruncate, MutationKind::kHeaderFuzz,
      MutationKind::kSplice,   MutationKind::kRandom,
      MutationKind::kByteSwap, MutationKind::kSectionSplice};
  for (std::uint64_t i = 0; i < seeded_mutations; ++i) {
    const auto kind = kKinds[i % std::size(kKinds)];
    const auto seed = base_seed + i;
    const auto mutant = mutate(pristine, kind, seed, header_bytes);
    record(report, probe(mutant, pristine),
           std::string("kind=") + to_string(kind) + " seed=" + std::to_string(seed));
  }

  return report;
}

}  // namespace dtse::testing
