// Crash-safe file primitives of the persistence artifacts (profile cache
// entries).
//
// The commit discipline is write-temp + fsync + atomic rename + directory
// fsync: a reader never observes a half-written artifact, and a crash at any
// point leaves either the previous version or a `.tmp` leftover that the
// owning component sweeps away.  All functions report failure as a return
// value — persistence is an accelerator for the pipeline, never something
// that may abort it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dtse::persist {

/// Suffix of in-flight commits; never parsed, swept on open.
inline constexpr const char* kTempSuffix = ".tmp";
/// Suffix given to artifacts that failed integrity checks (kept for
/// post-mortem instead of silently deleted).
inline constexpr const char* kQuarantineSuffix = ".quarantined";

/// Atomically replaces `path` with `bytes`: writes `path + ".tmp"`, fsyncs,
/// renames over `path`, fsyncs the parent directory.  Returns false (and
/// removes the temp file) on any failure.
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     const std::vector<std::uint8_t>& bytes);

/// Reads a whole file of at most `max_bytes`; false on absence, oversize or
/// a short read.
[[nodiscard]] bool read_file_bytes(const std::string& path, std::uint64_t max_bytes,
                                   std::vector<std::uint8_t>& out);

/// Sets a failed artifact aside as `path + ".quarantined"` (falling back to
/// deletion when the rename fails) so it cannot be re-read as valid.
void quarantine_file(const std::string& path);

}  // namespace dtse::persist
