// One full `explore` pipeline run, driven through the library's public API.
//
// The pipeline is the one examples/explore runs with its defaults: for
// every registered workload a golden verify, profiling through the profile
// cache, MACP analysis, the tuned variant, a 3-point storage-cycle-budget
// sweep and a 5-point allocation sweep; then the entropy-roster variants
// (btpc rice/expgolomb, hyperspec expgolomb/rans), the 6-point shared
// allocation sweep over all tuned models and the per-workload attribution.
// Its sweep points equal `explore --report-out`'s "points" bit for bit.
//
// Untraced, the sweeps go through `Explorer::explore_*` exactly as the CLI
// does.  Traced, the benchmark times every public call it makes: profiling
// splits into the cache lookup, `Workload::profile` and the cache store, and
// each sweep point into `scbd::distribute_budget` and
// `MemoryAllocator::allocate` (mirroring `Explorer::evaluate`), run on the
// same number of workers.  Both modes must produce the same fingerprint.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/explorer.hpp"
#include "obs/run_report.hpp"
#include "persist/profile_cache.hpp"
#include "tracer.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

struct ExploreContext {
  const dtse::core::Explorer* explorer = nullptr;
  const dtse::alloc::MemoryAllocator* allocator = nullptr;
  dtse::workloads::WorkloadOptions workload_options;
  dtse::core::ExplorerOptions options;
};

/// Program counters read as deltas around the calls of one layer.
struct LayerCounters {
  std::uint64_t trace_events = 0;   ///< recorder.recorded_events
  std::uint64_t reuse_misses = 0;   ///< recorder.reuse_misses
  std::uint64_t cache_hits = 0;     ///< profile_cache.hits
  std::uint64_t cache_lookups = 0;  ///< profile_cache.hits + misses
  std::uint64_t sa_moves = 0;       ///< solver.sa.moves
  std::uint64_t sa_accepted = 0;    ///< solver.sa.accepted
  std::uint64_t bb_nodes = 0;       ///< solver.bb.nodes
  std::uint64_t bb_pruned = 0;      ///< solver.bb.pruned

  [[nodiscard]] static LayerCounters read();
  LayerCounters& operator+=(const LayerCounters& other);
  [[nodiscard]] LayerCounters operator-(const LayerCounters& other) const;
};

struct ExploreRun {
  dtse::obs::RunReport report;  ///< golden verdicts + every evaluated point
  std::uint64_t fingerprint = 0;
  std::uint64_t attempted = 0;  ///< verifies + profiles + evaluated points
  std::uint64_t failed = 0;
  /// Latency of every single-point evaluation (sweep points and roster
  /// evaluations).  Untraced: from the program's own `explore.*` spans.
  std::vector<double> eval_latency_ms;
  std::uint64_t infeasible = 0;
  /// CostWeights::scalarize of every point, feasible or not: the pipeline's
  /// point set is fixed, so a change that flips a point's feasibility moves
  /// the geomean by that point's new cost instead of adding or dropping it.
  std::vector<double> costs;
  /// Traced only: counter deltas attributed to layers.
  LayerCounters profile_counters;  ///< around Workload::profile
  LayerCounters load_counters;     ///< around ProfileCache::load
  LayerCounters alloc_counters;    ///< around sweeps and roster evaluations
};

/// `Explorer::evaluate` decomposed into its two public layer calls, each
/// under its own span (children of the calling thread's open span).  Same
/// result bit for bit.
[[nodiscard]] dtse::core::Evaluation traced_evaluate(
    const dtse::alloc::MemoryAllocator& allocator, const dtse::ir::Application& app,
    const dtse::core::ExplorerOptions& options, Tracer& tracer);

/// Profiles every model the pipeline needs into `cache` (the warm
/// workload's setup).
void fill_profile_cache(const dtse::workloads::WorkloadOptions& options,
                        dtse::persist::ProfileCache& cache);

/// One pipeline run.  `tracer` null = untraced.  Resets nothing: the caller
/// owns telemetry-registry hygiene between runs.
[[nodiscard]] ExploreRun run_explore(const ExploreContext& context,
                                     dtse::persist::ProfileCache& cache, Tracer* tracer);

}  // namespace perfbench
