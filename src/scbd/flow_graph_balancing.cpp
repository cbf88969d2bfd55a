#include "scbd/flow_graph_balancing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace dtse::scbd {

namespace {

/// One schedulable unit.  Accesses with per_iteration > 1 are expanded into
/// multiple units so that e.g. twelve neighbourhood reads per iteration
/// really compete for twelve access slots.
struct Unit {
  std::size_t access = 0;   ///< index into LoopBody::accesses
  double weight = 0.0;      ///< expected executions per iteration (<= 1)
};

constexpr std::size_t kMaxUnitsPerAccess = 64;

std::vector<Unit> expand_units(const ir::LoopBody& body) {
  std::vector<Unit> units;
  for (std::size_t i = 0; i < body.accesses.size(); ++i) {
    const double count = body.accesses[i].per_iteration;
    if (count <= 0.0) continue;
    const auto whole = static_cast<std::size_t>(count);
    DTSE_CHECK(whole <= kMaxUnitsPerAccess,
               "access count per iteration too large to schedule; split the loop body");
    for (std::size_t k = 0; k < whole; ++k) units.push_back({i, 1.0});
    const double rest = count - static_cast<double>(whole);
    if (rest > 1e-12) units.push_back({i, rest});
  }
  return units;
}

/// Dependency DAG over units: every unit of access a precedes every unit of
/// access b when (a, b) is a dependency of the body.  Edges go in dependency
/// order, then by ascending unit index on both ends.
graph::Digraph unit_dag(const ir::LoopBody& body, const std::vector<Unit>& units) {
  std::vector<std::vector<std::size_t>> units_of(body.accesses.size());
  for (std::size_t u = 0; u < units.size(); ++u) units_of[units[u].access].push_back(u);
  graph::Digraph dag(units.size());
  for (const auto& [from, to] : body.deps) {
    if (from >= units_of.size() || to >= units_of.size()) continue;  // names no unit
    for (const auto u : units_of[from]) {
      for (const auto v : units_of[to]) dag.add_edge(u, v);
    }
  }
  return dag;
}

/// Dependency critical path in whole cycles from per-unit earliest starts
/// (the same maximum `Digraph::longest_path` takes).
std::uint64_t critical_path(const std::vector<double>& start,
                            const std::vector<double>& latency) {
  double path = 0.0;
  for (std::size_t u = 0; u < start.size(); ++u) path = std::max(path, start[u] + latency[u]);
  return static_cast<std::uint64_t>(std::ceil(path));
}

}  // namespace

BodyScheduler::BodyScheduler(const ir::Application& app, ir::LoopBodyId body_id,
                             const graph::LatencyModel& latency,
                             const ConflictPenalties& penalties)
    : penalties_(penalties) {
  // One per scheduling context built: `distribute_budget` adds one per body.
  obs::TelemetryRegistry::global().counter("scbd.body_schedulers").add(1);
  const auto& body = app.body(body_id);
  frame_weight_ = static_cast<double>(body.iterations);
  const auto units = expand_units(body);
  const std::size_t n = units.size();
  weight_.resize(n);
  group_.resize(n);
  offchip_.resize(n);
  latency_.resize(n);
  std::vector<double> default_latency(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto id = body.accesses[units[u].access].group;
    const auto it = std::find(group_ids_.begin(), group_ids_.end(), id);
    group_[u] = static_cast<std::size_t>(it - group_ids_.begin());
    if (it == group_ids_.end()) group_ids_.push_back(id);
    const auto& group = app.group(id);
    weight_[u] = units[u].weight;
    offchip_[u] = latency.presumed_offchip(group);
    latency_[u] = latency.latency(group);
    default_latency[u] = graph::LatencyModel{}.latency(group);
  }
  if (n == 0) return;

  dag_ = unit_dag(body, units);
  auto asap = dag_.earliest_start(latency_);
  DTSE_CHECK(asap.has_value(), "cyclic dependencies in body " + body.name);
  asap_ = std::move(*asap);
  min_budget_ = critical_path(asap_, latency_);
  // One unit per cycle is always conflict-free; dependencies can only need
  // more cycles than units when off-chip latencies stack up along a chain.
  const auto default_asap = dag_.earliest_start(default_latency);
  serial_budget_ = std::max<std::uint64_t>(n, critical_path(*default_asap, default_latency));

  graph::Digraph reverse(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto succ : dag_.successors(u)) reverse.add_edge(succ, u);
  }
  auto rev_start = reverse.earliest_start(latency_);
  DTSE_ASSERT(rev_start.has_value(), "reverse DAG must be acyclic too");
  reverse_asap_ = std::move(*rev_start);
  topo_ = *dag_.topological_order();
}

double BodyScheduler::pair_penalty(std::size_t a, std::size_t b) const {
  const bool a_off = offchip_[a];
  const bool b_off = offchip_[b];
  if (group_[a] == group_[b]) return a_off ? penalties_.offchip_self : penalties_.onchip_self;
  if (a_off && b_off) return penalties_.offchip_pair;
  if (a_off || b_off) return penalties_.mixed_pair;
  return penalties_.onchip_pair;
}

BodyScheduler::Slots BodyScheduler::schedule(std::uint64_t budget) const {
  budget = std::max(budget, std::max<std::uint64_t>(min_budget_, 1));
  const std::size_t n = weight_.size();
  Slots slots(budget);
  if (n == 0) return slots;

  // Static ASAP / ALAP bounds define each unit's mobility window.
  const double horizon = static_cast<double>(budget);
  std::vector<double> alap(n);
  for (std::size_t u = 0; u < n; ++u) alap[u] = horizon - reverse_asap_[u] - latency_[u];

  // Schedule in topological order; among ready choices the order is by
  // mobility (tightest window first), then by weight (heavy accesses first).
  std::vector<std::size_t> order = topo_;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double mob_a = alap[a] - asap_[a];
    const double mob_b = alap[b] - asap_[b];
    if (mob_a != mob_b) return mob_a < mob_b;
    return weight_[a] > weight_[b];
  });
  // Re-establish topological feasibility: sort is only a tie-break within
  // the dynamic-ASAP handling below, which tracks placed predecessors.

  std::vector<long> placed_slot(n, -1);

  // Conflict pairs already created while scheduling this body.  Re-using an
  // existing pair barely hurts (those two groups will be simultaneously
  // accessible anyway); a *new* pair grows the conflict graph and with it
  // the number of memories allocation will need.  The discount makes the
  // scheduler cluster parallelism on few group pairs, as flow-graph
  // balancing does.  One flag per (group, group) pair, both orders.
  const std::size_t groups = group_ids_.size();
  std::vector<std::uint8_t> seen_pairs(groups * groups, 0);
  constexpr double kReusedPairDiscount = 0.25;

  auto placement_cost = [&](std::size_t unit, std::size_t slot) {
    double cost = 0.0;
    for (const auto other : slots[slot]) {
      const double co_weight = std::min(weight_[unit], weight_[other]);
      double penalty = pair_penalty(unit, other);
      if (seen_pairs[group_[unit] * groups + group_[other]] != 0) {
        penalty *= kReusedPairDiscount;
      }
      cost += penalty * co_weight;
    }
    return cost;
  };

  for (const auto unit : order) {
    // Dynamic ASAP from already-placed predecessors (all predecessors appear
    // earlier in `order`'s topological base, but the mobility sort may have
    // moved them; fall back to the static bound when one is unplaced).
    double ready = asap_[unit];
    for (const auto pred : dag_.predecessors(unit)) {
      if (placed_slot[pred] >= 0) {
        ready = std::max(ready, static_cast<double>(placed_slot[pred]) + latency_[pred]);
      } else {
        ready = std::max(ready, asap_[pred] + latency_[pred]);
      }
    }
    const auto lo = static_cast<std::size_t>(
        std::min(std::max(0.0, std::ceil(ready)), horizon - 1.0));
    const auto hi = static_cast<std::size_t>(
        std::min(std::max(static_cast<double>(lo), alap[unit]), horizon - 1.0));

    std::size_t best_slot = lo;
    double best_cost = std::numeric_limits<double>::max();
    std::size_t best_load = std::numeric_limits<std::size_t>::max();
    for (std::size_t t = lo; t <= hi; ++t) {
      const double cost = placement_cost(unit, t);
      const std::size_t load = slots[t].size();
      if (cost < best_cost || (cost == best_cost && load < best_load)) {
        best_cost = cost;
        best_load = load;
        best_slot = t;
      }
      if (best_cost == 0.0 && best_load == 0) break;  // cannot improve
    }
    for (const auto other : slots[best_slot]) {
      seen_pairs[group_[unit] * groups + group_[other]] = 1;
      seen_pairs[group_[other] * groups + group_[unit]] = 1;
    }
    slots[best_slot].push_back(unit);
    placed_slot[unit] = static_cast<long>(best_slot);
  }
  return slots;
}

double BodyScheduler::harvest(const Slots& slots, graph::ConflictGraph* conflicts) const {
  // Every pair of units sharing a slot is a conflict, weighted by expected
  // co-occurrences per frame.
  double cost = 0.0;
  for (const auto& slot : slots) {
    for (std::size_t i = 0; i < slot.size(); ++i) {
      for (std::size_t j = i + 1; j < slot.size(); ++j) {
        const double co = std::min(weight_[slot[i]], weight_[slot[j]]);
        if (conflicts != nullptr) {
          conflicts->add_conflict(group_ids_[group_[slot[i]]], group_ids_[group_[slot[j]]],
                                  co * frame_weight_);
        }
        cost += pair_penalty(slot[i], slot[j]) * co * frame_weight_;
      }
    }
  }
  return cost;
}

BalanceResult BodyScheduler::balance(std::uint64_t budget_cycles) const {
  BalanceResult result;
  result.feasible = budget_cycles >= min_budget_;
  result.slots = schedule(budget_cycles);
  result.budget_cycles = result.slots.size();
  result.conflict_cost = harvest(result.slots, &result.conflicts);
  return result;
}

double BodyScheduler::conflict_cost(std::uint64_t budget_cycles) const {
  return harvest(schedule(budget_cycles), nullptr);
}

std::uint64_t min_body_budget(const ir::Application& app, ir::LoopBodyId body,
                              const graph::LatencyModel& latency) {
  return BodyScheduler(app, body, latency).min_budget();
}

std::uint64_t serial_body_budget(const ir::Application& app, ir::LoopBodyId body) {
  return BodyScheduler(app, body).serial_budget();
}

BalanceResult balance_body(const ir::Application& app, ir::LoopBodyId body,
                           std::uint64_t budget_cycles, const graph::LatencyModel& latency,
                           const ConflictPenalties& penalties) {
  return BodyScheduler(app, body, latency, penalties).balance(budget_cycles);
}

}  // namespace dtse::scbd
