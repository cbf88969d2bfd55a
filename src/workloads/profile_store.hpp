// Cache-key contract between the workload roster and the profile cache.
//
// `persist::ProfileCache` is deliberately generic — it stores APP1
// containers under opaque string keys.  This header owns the *meaning* of
// those keys for profiled workload models: a key is the FNV-1a content hash
// of everything `Workload::profile` is a deterministic function of,
//
//   (schema version, workload name, profile_size, seed, entropy_backend)
//
// so two profiling requests collide exactly when the contract says they
// must produce bit-identical models.  What the key does NOT cover is the
// workload *implementation*: a code change that alters profiling results
// must bump `kProfileKeySchemaVersion` (see docs/WORKLOADS.md for the
// policy), which invalidates every existing entry at once.
#pragma once

#include <string>

#include "persist/profile_cache.hpp"
#include "workloads/workload.hpp"

namespace dtse::workloads {

/// Salt hashed into every profile cache key.  Bump on any change that makes
/// previously cached models stale: profiling semantics, model tuning done
/// inside `profile`, or the meaning of a `WorkloadOptions` field.
inline constexpr std::uint64_t kProfileKeySchemaVersion = 2;

/// The cache key (16 lowercase hex chars) for profiling `workload_name`
/// under `options`.  Deterministic across runs and hosts.
[[nodiscard]] std::string profile_cache_key(std::string_view workload_name,
                                            const WorkloadOptions& options);

/// `workload.profile(options)` through the cache: integrity-verified hit
/// returns the stored model; a miss (or quarantined entry) profiles fresh
/// and commits the result.  `cache` may be null — then this is exactly
/// `workload.profile(options)`.
[[nodiscard]] ir::Application profile_cached(const Workload& workload,
                                             const WorkloadOptions& options,
                                             persist::ProfileCache* cache);

}  // namespace dtse::workloads
