// Flow-graph balancing: ordering the memory accesses of one loop body within
// a per-iteration cycle budget so that the required memory bandwidth (the
// number and badness of simultaneous accesses) is minimized.
//
// This reimplements the technique of [Wuytack/Catthoor, IEEE TVLSI 1999] and
// [Slock et al., ISSS 1997] in the loop-aware form the paper's prototype tool
// used: accesses are scheduled into `budget` cycle slots with a
// mobility-driven list scheduler that greedily picks the slot adding the
// least conflict cost.  The output is the body's contribution to the
// application-wide basic-group conflict graph.  Everything but the slot
// choices is fixed per body — placement order, pair penalties, dependency
// bounds — so one `BodyScheduler` prepares it once and then balances any
// budget; `distribute_budget` asks it only for the budgets its greedy reads.
//
// Access latencies and the conflict penalties are fixed constants of the
// pricing recipe; which accesses count as off-chip follows
// `graph::presumed_offchip`, the same rule MACP and allocation use.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/conflict_graph.hpp"
#include "ir/application.hpp"

namespace dtse::scbd {

/// Result of balancing one loop body.
struct BalanceResult {
  std::uint64_t budget_cycles = 0;           ///< slots used (== requested budget)
  std::vector<std::vector<std::size_t>> slots;  ///< per cycle: access indices
  graph::ConflictGraph conflicts;            ///< per-frame weighted conflicts
  double conflict_cost = 0.0;                ///< penalty-weighted cost per frame
  bool feasible = false;                     ///< budget >= dependency critical path
};

/// Budget-invariant scheduling state of one loop body: the expanded access
/// units, per-unit latencies, ASAP and reverse-ASAP bounds, the placement
/// order, each unit's predecessors that order places before it, the
/// unit-pair penalty and co-weight tables and the critical-path budget.
/// Building it is the part of balancing that does not depend on the budget,
/// so `distribute_budget` builds one per body and balances the cost-curve
/// budgets its greedy reads, and the final schedule, on it.  Every call
/// schedules into scratch it owns, so one scheduler may balance from several
/// threads at once.
class BodyScheduler {
 public:
  BodyScheduler(const ir::Application& app, ir::LoopBodyId body);

  /// Minimal per-iteration budget for which the body is schedulable: the
  /// dependency critical path measured in whole cycles (0 without accesses).
  [[nodiscard]] std::uint64_t min_budget() const { return min_budget_; }

  /// Budget at which the body schedules without any conflict: all access
  /// units in distinct cycles, or the critical path when that is longer.
  [[nodiscard]] std::uint64_t serial_budget() const { return serial_budget_; }

  /// The order the list scheduler places units in: topological order,
  /// stably sorted by mobility (tightest window first), then by weight
  /// (heaviest first).  A unit's mobility at budget B is B minus the longest
  /// dependency path through it; ASAP bounds and latencies are whole
  /// cycles, so B drops out of every comparison and one order serves every
  /// budget.
  [[nodiscard]] const std::vector<std::size_t>& placement_order() const { return order_; }

  /// Balances the body into `budget_cycles` slots.  If the budget is below
  /// the dependency critical path the result is marked infeasible and
  /// scheduled at the critical-path budget instead.
  [[nodiscard]] BalanceResult balance(std::uint64_t budget_cycles) const;

  /// `balance(budget_cycles).conflict_cost` without harvesting the conflict
  /// graph or the slot lists — what a cost-curve point needs.
  [[nodiscard]] double conflict_cost(std::uint64_t budget_cycles) const;

 private:
  struct Schedule;

  /// The list schedule at `budget` slots, raised to the critical path (and
  /// to one slot) when below it, into `out`; returns its penalty-weighted
  /// cost per frame and accumulates the conflicts into `conflicts` when it
  /// is non-null.
  double schedule(std::uint64_t budget, Schedule& out, graph::ConflictGraph* conflicts) const;

  double frame_weight_ = 1.0;                 ///< body iterations per frame
  std::vector<std::size_t> group_;            ///< per unit: body-local group index
  std::vector<ir::BasicGroupId> group_ids_;   ///< body-local index -> group id
  std::vector<double> latency_;
  std::vector<double> asap_;
  std::vector<double> reverse_asap_;
  std::vector<std::size_t> order_;            ///< placement order
  /// Per unit u, `placed_preds_[pred_begin_[u] .. pred_begin_[u + 1])`: the
  /// predecessors `order_` places before u.  An unplaced one bounds u's
  /// start by its static ASAP plus latency, which u's ASAP already covers.
  std::vector<std::size_t> pred_begin_;
  std::vector<std::size_t> placed_preds_;
  /// Per unit pair (u * units + v): min(weight u, weight v), and the
  /// conflict penalty of the pair times that co-weight.
  std::vector<double> co_weight_;
  std::vector<double> pair_cost_;
  std::uint64_t min_budget_ = 0;
  std::uint64_t serial_budget_ = 0;
};

}  // namespace dtse::scbd
