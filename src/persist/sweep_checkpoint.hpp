// "SWP1": the crash-safe sweep checkpoint container.
//
// A shared allocation-count sweep is a list of independent evaluations, each
// potentially minutes of solver time.  `SweepCheckpoint` persists the rows
// that finished cleanly so a killed, crashed or cancelled run resumes where
// it left off instead of re-pricing everything.
//
// The checkpoint binds to its sweep through `fingerprint`, a content hash of
// the merged application model, the cycle budgets and the solver options
// (computed by the sweep driver); the rest of the pricing recipe is fixed.
// Changing the workload roster, profiling options, budgets or solver
// options changes the fingerprint, and a stale checkpoint is quarantined
// rather than resumed from.  The allocation-count list is deliberately
// *not* part of the fingerprint: resuming the same sweep with extra counts
// is the core use-case, and the saved rows stay valid row-by-row.
//
// Hardening: same rules as APP1 (fixed big-endian layout, version gate, caps
// before allocation, declared-vs-actual length reconciliation, payload
// FNV-1a verified before parsing, canonical encoding).  `load_checkpoint` /
// `save_checkpoint` wrap the container in the atomic-commit file discipline
// of `file_io.hpp`; a bad file on disk is set aside and the sweep starts
// fresh — resumption is an accelerator, never a correctness dependency.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memlib/memory_cost.hpp"
#include "support/status.hpp"

namespace dtse::persist {

inline constexpr std::uint16_t kCheckpointVersion = 1;
/// magic(4) + version(2) + pad(2) + fingerprint(8) + rows(4) + payload
/// length(4) + payload hash(8).
inline constexpr std::size_t kCheckpointHeaderBytes = 32;
inline constexpr std::uint32_t kMaxCheckpointRows = 4096;
inline constexpr std::uint32_t kMaxCheckpointCount = 65'536;
inline constexpr std::size_t kMaxCheckpointLabelBytes = 1024;

/// One cleanly completed sweep row: the allocation count it priced and the
/// cost verdict.  Degraded rows (solver error, time-out) are never
/// checkpointed — they recompute on resume.
struct CheckpointRow {
  int count = 0;
  bool feasible = false;
  std::uint64_t spare_cycles = 0;
  memlib::CostSummary summary;
  std::string label;
};

struct SweepCheckpoint {
  std::uint64_t fingerprint = 0;
  std::vector<CheckpointRow> rows;
};

/// Deterministic serialization; throws `support::ContractError` only on
/// cap-violating checkpoints (that many rows is a bug, not data).
[[nodiscard]] std::vector<std::uint8_t> serialize(const SweepCheckpoint& checkpoint);

/// Hardened parse of untrusted bytes; trichotomy as for APP1.
[[nodiscard]] support::Result<SweepCheckpoint> try_deserialize_checkpoint(
    const std::vector<std::uint8_t>& bytes);

/// Loads and verifies the checkpoint at `path`.  Absent file, corrupt file
/// or a fingerprint other than `expected_fingerprint` yields `nullopt`; bad
/// files are quarantined (`.quarantined`), stale-fingerprint files are left
/// for the next save to overwrite.  Never throws on I/O trouble.
[[nodiscard]] std::optional<SweepCheckpoint> load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint);

/// Commits the checkpoint atomically (write-temp + fsync + rename).
/// Returns false when the commit failed; the sweep continues either way.
bool save_checkpoint(const std::string& path, const SweepCheckpoint& checkpoint);

}  // namespace dtse::persist
