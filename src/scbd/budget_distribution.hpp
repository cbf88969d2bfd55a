// Storage cycle budget distribution over loop bodies — Section 4.5.
//
// The designer puts forward one overall storage cycle budget per frame
// (derived from the real-time constraint).  This pass distributes it over
// the loop bodies — a cycle given to a body executed 300 000 times costs
// 300 000 cycles of the global budget, which is why the achievable budgets
// jump in coarse steps (Table 3).  Each body is then balanced with the
// flow-graph balancing scheduler, and the union of the per-body conflict
// graphs is the bandwidth requirement handed to memory allocation.
//
// Distribution algorithm: every body starts at its dependency-critical-path
// minimum; remaining global budget is spent greedily on the per-iteration
// budget increment with the best conflict-cost reduction per global cycle
// (a multiple-choice knapsack heuristic over per-body cost curves).  A curve
// point is balanced the first time the greedy reads it: the greedy only
// compares each body's current budget with the one above, so a body whose
// budget stops low never has the rest of its curve scheduled.  The counter
// `scbd.schedules` counts the list schedules one distribution runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/conflict_graph.hpp"
#include "scbd/flow_graph_balancing.hpp"

namespace dtse::scbd {

struct ScbdOptions {
  std::uint64_t global_budget_cycles = 20'000'000;  ///< per frame
};

/// Budget decision and schedule for one loop body.
struct BodyBudget {
  ir::LoopBodyId body;
  std::string name;
  std::uint64_t iterations = 1;
  std::uint64_t min_cycles = 0;      ///< dependency critical path per iteration
  std::uint64_t serial_cycles = 0;   ///< conflict-free budget per iteration
  std::uint64_t budget_cycles = 0;   ///< assigned budget per iteration
  BalanceResult schedule;
};

struct ScbdResult {
  std::vector<BodyBudget> bodies;
  graph::ConflictGraph conflicts;        ///< application-wide union
  std::uint64_t used_cycles = 0;         ///< sum of budget * iterations
  std::uint64_t minimum_cycles = 0;      ///< sum of min * iterations (MACP floor)
  std::uint64_t conflict_free_cycles = 0;///< sum of serial * iterations
  double conflict_cost = 0.0;            ///< penalty-weighted total
  bool feasible = false;                 ///< global budget >= minimum_cycles

  /// Cycles left over for data-path scheduling (Table 3's first column).
  [[nodiscard]] std::uint64_t spare_cycles(std::uint64_t real_time_budget) const {
    return real_time_budget > used_cycles ? real_time_budget - used_cycles : 0;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Distributes `options.global_budget_cycles` over the loop bodies of `app`
/// and balances every body.  Always returns a schedule; `feasible` is false
/// when even the critical-path minimum exceeds the global budget.
[[nodiscard]] ScbdResult distribute_budget(const ir::Application& app,
                                           const ScbdOptions& options = {});

}  // namespace dtse::scbd
