// Flow-graph balancing: ordering the memory accesses of one loop body within
// a per-iteration cycle budget so that the required memory bandwidth (the
// number and badness of simultaneous accesses) is minimized.
//
// This reimplements the technique of [Wuytack/Catthoor, IEEE TVLSI 1999] and
// [Slock et al., ISSS 1997] in the loop-aware form the paper's prototype tool
// used: accesses are scheduled into `budget` cycle slots with a
// mobility-driven list scheduler that greedily picks the slot adding the
// least conflict cost.  The output is the body's contribution to the
// application-wide basic-group conflict graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/conflict_graph.hpp"
#include "graph/digraph.hpp"
#include "graph/macp.hpp"
#include "ir/application.hpp"

namespace dtse::scbd {

/// Penalties steering the scheduler away from expensive conflicts.  The
/// values express how costly it is for the *memory architecture* to serve
/// the two accesses in parallel; the physical allocation later prices the
/// surviving conflicts exactly.
struct ConflictPenalties {
  double onchip_pair = 1.0;         ///< two on-chip groups in parallel
  double mixed_pair = 1.2;          ///< on-chip with off-chip
  double offchip_pair = 12.0;       ///< two off-chip groups: two DRAM buses
  double onchip_self = 8.0;         ///< dual-port on-chip memory
  double offchip_self = 60.0;       ///< dual-port off-chip memory (Table 2!)
};

/// Result of balancing one loop body.
struct BalanceResult {
  std::uint64_t budget_cycles = 0;           ///< slots used (== requested budget)
  std::vector<std::vector<std::size_t>> slots;  ///< per cycle: access indices
  graph::ConflictGraph conflicts;            ///< per-frame weighted conflicts
  double conflict_cost = 0.0;                ///< penalty-weighted cost per frame
  bool feasible = false;                     ///< budget >= dependency critical path
};

/// Budget-invariant scheduling state of one loop body: the expanded access
/// units, their dependency DAG, per-unit latencies, ASAP and reverse-ASAP
/// bounds, the topological order and the critical-path budget.  Building it
/// is the part of balancing that does not depend on the budget, so
/// `distribute_budget` builds one per body and balances every step of the
/// body's cost curve, and the final schedule, on it.
class BodyScheduler {
 public:
  BodyScheduler(const ir::Application& app, ir::LoopBodyId body,
                const graph::LatencyModel& latency = {},
                const ConflictPenalties& penalties = {});

  /// Minimal per-iteration budget for which the body is schedulable: the
  /// dependency critical path measured in whole cycles (0 without accesses).
  [[nodiscard]] std::uint64_t min_budget() const { return min_budget_; }

  /// Budget at which the body schedules without any conflict: all access
  /// units in distinct cycles, or the critical path under the default
  /// latency model when that is longer.
  [[nodiscard]] std::uint64_t serial_budget() const { return serial_budget_; }

  /// Balances the body into `budget_cycles` slots.  If the budget is below
  /// the dependency critical path the result is marked infeasible and
  /// scheduled at the critical-path budget instead.
  [[nodiscard]] BalanceResult balance(std::uint64_t budget_cycles) const;

  /// `balance(budget_cycles).conflict_cost` without harvesting the conflict
  /// graph — what a cost-curve step needs.
  [[nodiscard]] double conflict_cost(std::uint64_t budget_cycles) const;

 private:
  using Slots = std::vector<std::vector<std::size_t>>;

  /// The list schedule at `budget` slots, raised to the critical path (and
  /// to one slot) when below it.
  [[nodiscard]] Slots schedule(std::uint64_t budget) const;

  /// Penalty-weighted cost per frame of `slots`; also accumulates the
  /// conflicts into `conflicts` when it is non-null.
  [[nodiscard]] double harvest(const Slots& slots, graph::ConflictGraph* conflicts) const;

  [[nodiscard]] double pair_penalty(std::size_t a, std::size_t b) const;

  ConflictPenalties penalties_;
  double frame_weight_ = 1.0;                 ///< body iterations per frame
  std::vector<double> weight_;                ///< per unit: executions per iteration
  std::vector<std::size_t> group_;            ///< per unit: body-local group index
  std::vector<bool> offchip_;                 ///< per unit: presumed off-chip
  std::vector<ir::BasicGroupId> group_ids_;   ///< body-local index -> group id
  graph::Digraph dag_;
  std::vector<double> latency_;
  std::vector<double> asap_;
  std::vector<double> reverse_asap_;
  std::vector<std::size_t> topo_;
  std::uint64_t min_budget_ = 0;
  std::uint64_t serial_budget_ = 0;
};

/// Minimal per-iteration budget for which the body is schedulable: the
/// dependency critical path measured in whole cycles.
[[nodiscard]] std::uint64_t min_body_budget(const ir::Application& app, ir::LoopBodyId body,
                                            const graph::LatencyModel& latency);

/// Budget at which the body schedules without any conflict: all access units
/// in distinct cycles.
[[nodiscard]] std::uint64_t serial_body_budget(const ir::Application& app,
                                               ir::LoopBodyId body);

/// Balances `body` into `budget_cycles` slots (see `BodyScheduler::balance`).
[[nodiscard]] BalanceResult balance_body(const ir::Application& app, ir::LoopBodyId body,
                                         std::uint64_t budget_cycles,
                                         const graph::LatencyModel& latency = {},
                                         const ConflictPenalties& penalties = {});

}  // namespace dtse::scbd
