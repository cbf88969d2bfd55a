// The interactive feedback loop: one client sends single `Explorer::evaluate`
// what-if queries over already-profiled models and waits for each answer
// (a closed loop).
//
// Models: every registered workload as tuned (its structuring/hierarchy
// decisions applied) and, where tuning changes the model, also as profiled;
// plus the merged shared model of the tuned and of the as-profiled set.  A round is a fixed, seed-drawn set
// of queries: per model every memory count 4-14 with a storage budget from
// each of three strata of 58-100 % of the real-time budget (the seed picks
// the budget inside each stratum).  Every round
// repeats the same queries in a fresh seeded order, so a round's
// fingerprint, infeasible share and cost geomean repeat exactly while the
// latencies are sampled again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/explorer.hpp"
#include "tracer.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

struct QueryModel {
  std::string label;
  dtse::ir::Application app;
};

struct Query {
  std::size_t model = 0;
  dtse::core::ExplorerOptions options;
};

struct RoundResult {
  std::uint64_t fingerprint = 0;  ///< over results in draw order
  std::vector<double> latency_ms;
  std::uint64_t failed = 0;
  std::uint64_t infeasible = 0;
  std::vector<double> feasible_costs;  ///< CostWeights::scalarize
  double wall_s = 0.0;
};

/// Profiles and tunes every registered workload and merges the shared
/// models (the setup of the query workload).
[[nodiscard]] std::vector<QueryModel> prepare_query_models(
    const dtse::workloads::WorkloadOptions& options);

/// The round's queries, drawn from `seed` (33 per model).
[[nodiscard]] std::vector<Query> draw_queries(std::size_t model_count, std::uint64_t seed,
                                              const dtse::core::ExplorerOptions& base);

/// Runs every query once, in an order shuffled by (seed, round).  Traced, each
/// query is decomposed into its scbd and alloc calls under a query span.
[[nodiscard]] RoundResult run_round(const std::vector<QueryModel>& models,
                                    const std::vector<Query>& queries, std::uint64_t seed,
                                    std::uint64_t round, const dtse::core::Explorer& explorer,
                                    const dtse::alloc::MemoryAllocator& allocator,
                                    Tracer* tracer);

}  // namespace perfbench
