#include "scbd/flow_graph_balancing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/digraph.hpp"
#include "graph/macp.hpp"
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

/// Penalties steering the scheduler away from expensive conflicts.  The
/// values express how costly it is for the *memory architecture* to serve
/// two accesses in parallel; the physical allocation later prices the
/// surviving conflicts exactly.
constexpr double kOnchipPairPenalty = 1.0;   ///< two on-chip groups in parallel
constexpr double kMixedPairPenalty = 1.2;    ///< on-chip with off-chip
constexpr double kOffchipPairPenalty = 12.0; ///< two off-chip groups: two DRAM buses
constexpr double kOnchipSelfPenalty = 8.0;   ///< dual-port on-chip memory
constexpr double kOffchipSelfPenalty = 60.0; ///< dual-port off-chip memory (Table 2!)

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

constexpr std::size_t kNoUnit = std::numeric_limits<std::size_t>::max();

}  // namespace

/// One list schedule: per slot a list of units in placement order, kept as
/// first/last links and a per-unit successor link, plus the call's scratch.
struct BodyScheduler::Schedule {
  std::vector<std::size_t> first;  ///< per slot: first unit placed, kNoUnit if none
  std::vector<std::size_t> last;   ///< per slot: last unit placed
  std::vector<std::size_t> load;   ///< per slot: units placed
  std::vector<std::size_t> next;   ///< per unit: next unit in its slot
  std::vector<std::size_t> slot;   ///< per unit: its slot
  /// Conflict pairs already created, one flag per (group, group) pair in
  /// both orders.
  std::vector<std::uint8_t> seen_pairs;
};

BodyScheduler::BodyScheduler(const ir::Application& app, ir::LoopBodyId body_id) {
  // One per scheduling context built: `distribute_budget` adds one per body.
  obs::TelemetryRegistry::global().counter("scbd.body_schedulers").add(1);
  const auto& body = app.body(body_id);
  frame_weight_ = static_cast<double>(body.iterations);
  const auto units = expand_units(body);
  const std::size_t n = units.size();
  std::vector<double> weight(n);
  std::vector<bool> offchip(n);
  group_.resize(n);
  latency_.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto id = body.accesses[units[u].access].group;
    const auto it = std::find(group_ids_.begin(), group_ids_.end(), id);
    group_[u] = static_cast<std::size_t>(it - group_ids_.begin());
    if (it == group_ids_.end()) group_ids_.push_back(id);
    const auto& group = app.group(id);
    weight[u] = units[u].weight;
    offchip[u] = graph::presumed_offchip(group);
    latency_[u] = graph::access_latency(group);
    DTSE_DCHECK(latency_[u] == std::floor(latency_[u]), "latencies are whole cycles");
  }
  if (n == 0) return;

  const auto dag = unit_dag(body, units);
  auto asap = dag.earliest_start(latency_);
  DTSE_CHECK(asap.has_value(), "cyclic dependencies in body " + body.name);
  asap_ = std::move(*asap);
  min_budget_ = critical_path(asap_, latency_);
  // One unit per cycle is always conflict-free; dependencies can only need
  // more cycles than units when off-chip latencies stack up along a chain.
  serial_budget_ = std::max<std::uint64_t>(n, min_budget_);

  graph::Digraph reverse(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto succ : dag.successors(u)) reverse.add_edge(succ, u);
  }
  auto rev_start = reverse.earliest_start(latency_);
  DTSE_ASSERT(rev_start.has_value(), "reverse DAG must be acyclic too");
  reverse_asap_ = std::move(*rev_start);

  // Mobility less the budget: every term is a whole number of cycles, so
  // these compare exactly as the mobilities at any budget do.
  std::vector<double> mobility(n);
  for (std::size_t u = 0; u < n; ++u) {
    mobility[u] = (0.0 - reverse_asap_[u] - latency_[u]) - asap_[u];
  }
  order_ = *dag.topological_order();
  std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    if (mobility[a] != mobility[b]) return mobility[a] < mobility[b];
    return weight[a] > weight[b];
  });

  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[order_[i]] = i;
  pred_begin_.reserve(n + 1);
  pred_begin_.push_back(0);
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto pred : dag.predecessors(u)) {
      if (rank[pred] < rank[u]) placed_preds_.push_back(pred);
    }
    pred_begin_.push_back(placed_preds_.size());
  }

  co_weight_.resize(n * n);
  pair_cost_.resize(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      double penalty = kOnchipPairPenalty;
      if (group_[a] == group_[b]) {
        penalty = offchip[a] ? kOffchipSelfPenalty : kOnchipSelfPenalty;
      } else if (offchip[a] && offchip[b]) {
        penalty = kOffchipPairPenalty;
      } else if (offchip[a] || offchip[b]) {
        penalty = kMixedPairPenalty;
      }
      const double co = std::min(weight[a], weight[b]);
      co_weight_[a * n + b] = co;
      pair_cost_[a * n + b] = penalty * co;
    }
  }
}

double BodyScheduler::schedule(std::uint64_t budget, Schedule& out,
                               graph::ConflictGraph* conflicts) const {
  budget = std::max(budget, std::max<std::uint64_t>(min_budget_, 1));
  const std::size_t n = group_.size();
  out.first.assign(budget, kNoUnit);
  out.last.assign(budget, kNoUnit);
  out.load.assign(budget, 0);
  out.next.assign(n, kNoUnit);
  out.slot.assign(n, 0);
  if (n == 0) return 0.0;

  // Re-using an existing conflict pair barely hurts (those two groups will be
  // simultaneously accessible anyway); a *new* pair grows the conflict graph
  // and with it the number of memories allocation will need.  The discount
  // makes the scheduler cluster parallelism on few group pairs, as flow-graph
  // balancing does.  Scaling by a power of two is exact, so discounting the
  // tabled penalty x co-weight product equals discounting the penalty first.
  const std::size_t groups = group_ids_.size();
  out.seen_pairs.assign(groups * groups, 0);
  constexpr double kReusedPairDiscount = 0.25;

  // Static ASAP / ALAP bounds define each unit's mobility window.
  const double horizon = static_cast<double>(budget);
  for (const auto unit : order_) {
    const double* pair_cost = pair_cost_.data() + unit * n;
    const std::uint8_t* seen = out.seen_pairs.data() + group_[unit] * groups;
    // Dynamic ASAP from the predecessors placed so far; the unplaced ones
    // bound it by their static ASAP, which the unit's own already covers.
    double ready = asap_[unit];
    for (std::size_t p = pred_begin_[unit]; p < pred_begin_[unit + 1]; ++p) {
      const auto pred = placed_preds_[p];
      ready = std::max(ready, static_cast<double>(out.slot[pred]) + latency_[pred]);
    }
    const double alap = horizon - reverse_asap_[unit] - latency_[unit];
    const auto lo = static_cast<std::size_t>(
        std::min(std::max(0.0, std::ceil(ready)), horizon - 1.0));
    const auto hi = static_cast<std::size_t>(
        std::min(std::max(static_cast<double>(lo), alap), horizon - 1.0));

    std::size_t best_slot = lo;
    double best_cost = std::numeric_limits<double>::max();
    std::size_t best_load = std::numeric_limits<std::size_t>::max();
    for (std::size_t t = lo; t <= hi; ++t) {
      // The slot's placement cost, summed in placement order.  Pair costs
      // are positive and a rounded sum of non-negative terms never falls, so
      // the sum stops as soon as the slot cannot beat the best one (lower
      // cost, then lower load).
      const std::size_t load = out.load[t];
      double cost = 0.0;
      auto other = out.first[t];
      for (; other != kNoUnit; other = out.next[other]) {
        const double pair = pair_cost[other];
        cost += seen[group_[other]] != 0 ? pair * kReusedPairDiscount : pair;
        if (cost > best_cost || (cost == best_cost && load >= best_load)) break;
      }
      if (other != kNoUnit) continue;
      if (cost < best_cost || (cost == best_cost && load < best_load)) {
        best_cost = cost;
        best_load = load;
        best_slot = t;
      }
      if (best_cost == 0.0 && best_load == 0) break;  // cannot improve
    }
    for (auto other = out.first[best_slot]; other != kNoUnit; other = out.next[other]) {
      out.seen_pairs[group_[unit] * groups + group_[other]] = 1;
      out.seen_pairs[group_[other] * groups + group_[unit]] = 1;
    }
    if (out.first[best_slot] == kNoUnit) {
      out.first[best_slot] = unit;
    } else {
      out.next[out.last[best_slot]] = unit;
    }
    out.last[best_slot] = unit;
    ++out.load[best_slot];
    out.slot[unit] = best_slot;
  }

  // Every pair of units sharing a slot is a conflict, weighted by expected
  // co-occurrences per frame.
  double cost = 0.0;
  for (std::size_t t = 0; t < budget; ++t) {
    for (auto a = out.first[t]; a != kNoUnit; a = out.next[a]) {
      for (auto b = out.next[a]; b != kNoUnit; b = out.next[b]) {
        if (conflicts != nullptr) {
          conflicts->add_conflict(group_ids_[group_[a]], group_ids_[group_[b]],
                                  co_weight_[a * n + b] * frame_weight_);
        }
        cost += pair_cost_[a * n + b] * frame_weight_;
      }
    }
  }
  return cost;
}

BalanceResult BodyScheduler::balance(std::uint64_t budget_cycles) const {
  BalanceResult result;
  result.feasible = budget_cycles >= min_budget_;
  Schedule schedule_out;
  result.conflict_cost = schedule(budget_cycles, schedule_out, &result.conflicts);
  result.budget_cycles = schedule_out.first.size();
  result.slots.resize(result.budget_cycles);
  for (std::size_t t = 0; t < result.slots.size(); ++t) {
    result.slots[t].reserve(schedule_out.load[t]);
    for (auto u = schedule_out.first[t]; u != kNoUnit; u = schedule_out.next[u]) {
      result.slots[t].push_back(u);
    }
  }
  return result;
}

double BodyScheduler::conflict_cost(std::uint64_t budget_cycles) const {
  Schedule schedule_out;
  return schedule(budget_cycles, schedule_out, nullptr);
}

}  // namespace dtse::scbd
