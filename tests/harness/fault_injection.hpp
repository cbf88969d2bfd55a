// Fault-injection harness for the hardened decode paths.
//
// The robustness contract of `try_decode` / `try_deserialize` is a
// trichotomy: for ANY input bytes the hardened decoder must either
//
//  1. reproduce the original payload bit-exactly (the mutation landed in
//     padding or cancelled out),
//  2. return a clean `support::Status` data error, or
//  3. return a decoded payload of bounded size (geometry within the decode
//     caps — corruption that survives the tripwires decodes to *something*,
//     and that is fine as long as it is bounded).
//
// What it must NEVER do is throw, crash, hang or trip a sanitizer.  This
// header provides seed-driven deterministic stream mutators plus campaign
// runners that probe a decoder against a battery of corrupted containers
// and classify every outcome; a single `kViolation` fails the campaign.
// The same probes back the libFuzzer targets in fuzz/ — the campaigns here
// are the always-on, fixed-cost slice of that search space.
//
// Test-side code: it builds as the `dtse_test_harness` target, which only
// fault_injection_test and make_fuzz_corpus link; libdtse carries none of it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace dtse::testing {

/// One family of stream corruption.  Every mutator is deterministic in
/// (input, seed) so a failing case replays from its campaign log line.
enum class MutationKind : std::uint8_t {
  kBitFlip,       ///< flip one bit anywhere in the container
  kMultiBitFlip,  ///< flip a burst of 2..64 bits
  kTruncate,      ///< drop a suffix (possibly mid-header)
  kHeaderFuzz,    ///< rewrite bytes within the header region only
  kSplice,        ///< overwrite a span with bytes from another offset
  kRandom,        ///< replace the whole container with random bytes
  kByteSwap,      ///< exchange two single bytes (torn out-of-order writes)
  kSectionSplice, ///< swap two disjoint spans (sections landing misordered)
};

[[nodiscard]] const char* to_string(MutationKind kind);

/// Applies `kind` to a copy of `bytes`, deterministically from `seed`.
/// `header_bytes` bounds the kHeaderFuzz region (pass the container's header
/// size).  Never returns the input unchanged except when the input is empty.
[[nodiscard]] std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& bytes,
                                               MutationKind kind, std::uint64_t seed,
                                               std::size_t header_bytes);

/// How a probe of one corrupted container went.
enum class DecodeOutcome : std::uint8_t {
  kBitExact,      ///< decoded and matches the pristine payload
  kCleanError,    ///< hardened path returned a non-ok Status
  kBoundedOutput, ///< decoded to a different, but bounded, payload
  kViolation,     ///< threw / aborted-equivalent — the contract is broken
};

[[nodiscard]] const char* to_string(DecodeOutcome outcome);

/// Decoder probe: parse `bytes` with a hardened entry point and classify.
/// `pristine` is the serialized form of the uncorrupted payload (for the
/// kBitExact test).  Any exception escaping the decoder maps to kViolation.
[[nodiscard]] DecodeOutcome probe_btpc(const std::vector<std::uint8_t>& bytes,
                                       const std::vector<std::uint8_t>& pristine);
[[nodiscard]] DecodeOutcome probe_hyperspec(const std::vector<std::uint8_t>& bytes,
                                            const std::vector<std::uint8_t>& pristine);
/// Probes the persisted application-model container ("APP1").  Equality is
/// canonical-form equality: an accepted model re-serializes to the pristine
/// bytes.  Because every APP1 section carries a content hash, campaigns
/// against it see (almost) no bounded-output arm — content mutations are
/// caught at the door as clean errors.
[[nodiscard]] DecodeOutcome probe_app(const std::vector<std::uint8_t>& bytes,
                                      const std::vector<std::uint8_t>& pristine);

/// Aggregated campaign result.  `violations` carries one replay line per
/// contract breach ("kind=bit-flip seed=123: threw ..."), empty on success.
struct CampaignReport {
  std::uint64_t probes = 0;
  std::uint64_t bit_exact = 0;
  std::uint64_t clean_errors = 0;
  std::uint64_t bounded_outputs = 0;
  std::vector<std::string> violations;

  [[nodiscard]] bool passed() const { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

using ProbeFn = DecodeOutcome (*)(const std::vector<std::uint8_t>&,
                                  const std::vector<std::uint8_t>&);

/// Runs the full battery against one pristine container:
///  * truncation at every 16-bit word boundary (and every byte of the header),
///  * an all-zeros and an all-ones container of the same length,
///  * `seeded_mutations` seed-driven mutations cycling through every
///    MutationKind,
///  * a handful of fully random streams per kind battery.
/// Deterministic in (pristine, base_seed).
[[nodiscard]] CampaignReport run_campaign(ProbeFn probe,
                                          const std::vector<std::uint8_t>& pristine,
                                          std::size_t header_bytes,
                                          std::uint64_t base_seed,
                                          std::uint64_t seeded_mutations);

}  // namespace dtse::testing
