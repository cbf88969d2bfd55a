// "APP1": the versioned binary container for `ir::Application`.
//
// The exploration oracle is a pure function of the profiled application
// model, so persisting that model makes every downstream result resumable
// and cacheable — this container is the durable form of the repo's central
// data structure (groups, loop bodies, reuse profiles).  The format follows
// the hardened-container rules established by the codec containers
// ("BTPC"/"BTP2", "HSC1"/"HSC2") and extends them for a file that must survive
// crashes and bit rot on disk:
//
//   * fixed big-endian layout, versioned, append-only semantics;
//   * a section table (NAME, GRPS, BODS, REUS) whose declared lengths must
//     reconcile exactly with the actual file size — no trailing garbage,
//     no short payloads;
//   * a per-section FNV-1a 64 content hash, verified before any section is
//     parsed, so silent corruption is caught at the door;
//   * resource caps checked before any allocation — a 40-byte file cannot
//     demand a million-group model;
//   * `try_deserialize_application` returns `support::Result` and holds the
//     robustness trichotomy on ANY input bytes (fault campaigns + fuzzer);
//     an accepted model always passes `ir::Application::validate()`.
//
// Canonical encoding: serialization is deterministic, and every container
// `try_deserialize_application` accepts re-serializes to *identical bytes*
// (fixed section order, unique field encodings, non-finite doubles
// rejected).  That property is what lets the profile cache compare and
// fingerprint entries by their serialized form alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/application.hpp"
#include "support/status.hpp"

namespace dtse::persist {

/// Format version; bump when the layout changes (readers reject newer
/// versions with kMalformedHeader — the cache quarantines such entries).
inline constexpr std::uint16_t kAppContainerVersion = 1;

/// Header (12 bytes) + section table (4 sections x 16 bytes).  The region
/// `MutationKind::kHeaderFuzz` targets, and the minimum parseable prefix.
inline constexpr std::size_t kAppHeaderBytes = 12 + 4 * 16;

// Deserialization resource caps: checked against the declared counts before
// anything is allocated.  Generous against every real model (the largest
// merged roster model is ~40 groups) while keeping a hostile container from
// demanding gigabytes.
inline constexpr std::uint32_t kMaxAppGroups = 100'000;
inline constexpr std::uint32_t kMaxAppBodies = 100'000;
inline constexpr std::uint32_t kMaxAppAccessesPerBody = 65'536;
inline constexpr std::uint32_t kMaxAppEdgesPerBody = 1u << 20;  ///< deps + co-accesses
inline constexpr std::uint32_t kMaxAppReuseWindows = 4096;
inline constexpr std::size_t kMaxAppNameBytes = 1024;

/// Serializes the model into one self-contained APP1 container.
/// Deterministic: the same model always yields the same bytes.  Throws
/// `support::ContractError` only when the model violates the container caps
/// above (a model that large is a bug, not data).
[[nodiscard]] std::vector<std::uint8_t> serialize(const ir::Application& app);

/// Hardened parse of untrusted bytes.  Every malformed input maps to a
/// clean `Status` (kTruncated / kMalformedHeader / kCorrupt /
/// kResourceLimit); a returned model passes `ir::Application::validate()`.
[[nodiscard]] support::Result<ir::Application> try_deserialize_application(
    const std::vector<std::uint8_t>& bytes);

}  // namespace dtse::persist
