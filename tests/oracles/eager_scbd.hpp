// Eager reference for storage cycle budget distribution.
//
// `EagerBodyScheduler` is the list scheduler as first written: it re-sorts
// the units by mobility at every budget, derives each pair's penalty from
// per-unit off-chip flags, walks every predecessor for the dynamic ASAP and
// schedules into one vector per slot.  `eager_distribute_budget` fills every
// body's whole cost curve, from the critical-path minimum to the serial
// budget, before the greedy knapsack runs.  The library's
// `scbd::distribute_budget` schedules only the budgets the greedy reads and
// places units in an order fixed at construction; both must reproduce this
// reference bit for bit (budgets, slots, conflict costs, conflict edges).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/conflict_graph.hpp"
#include "graph/digraph.hpp"
#include "graph/macp.hpp"
#include "ir/application.hpp"
#include "scbd/budget_distribution.hpp"
#include "scbd/flow_graph_balancing.hpp"
#include "support/check.hpp"

namespace dtse::scbd::oracle {

class EagerBodyScheduler {
 public:
  EagerBodyScheduler(const ir::Application& app, ir::LoopBodyId body_id) {
    const auto& body = app.body(body_id);
    frame_weight_ = static_cast<double>(body.iterations);
    std::vector<std::size_t> unit_access;
    for (std::size_t i = 0; i < body.accesses.size(); ++i) {
      const double count = body.accesses[i].per_iteration;
      if (count <= 0.0) continue;
      const auto whole = static_cast<std::size_t>(count);
      DTSE_CHECK(whole <= 64, "access count per iteration too large to schedule");
      for (std::size_t k = 0; k < whole; ++k) {
        unit_access.push_back(i);
        weight_.push_back(1.0);
      }
      const double rest = count - static_cast<double>(whole);
      if (rest > 1e-12) {
        unit_access.push_back(i);
        weight_.push_back(rest);
      }
    }
    const std::size_t n = unit_access.size();
    group_.resize(n);
    offchip_.resize(n);
    latency_.resize(n);
    for (std::size_t u = 0; u < n; ++u) {
      const auto id = body.accesses[unit_access[u]].group;
      const auto it = std::find(group_ids_.begin(), group_ids_.end(), id);
      group_[u] = static_cast<std::size_t>(it - group_ids_.begin());
      if (it == group_ids_.end()) group_ids_.push_back(id);
      const auto& group = app.group(id);
      offchip_[u] = graph::presumed_offchip(group);
      latency_[u] = graph::access_latency(group);
    }
    if (n == 0) return;

    std::vector<std::vector<std::size_t>> units_of(body.accesses.size());
    for (std::size_t u = 0; u < n; ++u) units_of[unit_access[u]].push_back(u);
    dag_ = graph::Digraph(n);
    for (const auto& [from, to] : body.deps) {
      if (from >= units_of.size() || to >= units_of.size()) continue;
      for (const auto u : units_of[from]) {
        for (const auto v : units_of[to]) dag_.add_edge(u, v);
      }
    }
    asap_ = *dag_.earliest_start(latency_);
    double path = 0.0;
    for (std::size_t u = 0; u < n; ++u) path = std::max(path, asap_[u] + latency_[u]);
    min_budget_ = static_cast<std::uint64_t>(std::ceil(path));
    serial_budget_ = std::max<std::uint64_t>(n, min_budget_);
    graph::Digraph reverse(n);
    for (std::size_t u = 0; u < n; ++u) {
      for (const auto succ : dag_.successors(u)) reverse.add_edge(succ, u);
    }
    reverse_asap_ = *reverse.earliest_start(latency_);
    topo_ = *dag_.topological_order();
  }

  [[nodiscard]] std::uint64_t min_budget() const { return min_budget_; }
  [[nodiscard]] std::uint64_t serial_budget() const { return serial_budget_; }

  /// The placement order at `budget`: topological order stably sorted by
  /// mobility (tightest window first), then by weight (heaviest first).
  [[nodiscard]] std::vector<std::size_t> mobility_order(std::uint64_t budget) const {
    budget = std::max(budget, std::max<std::uint64_t>(min_budget_, 1));
    const double horizon = static_cast<double>(budget);
    std::vector<double> alap(weight_.size());
    for (std::size_t u = 0; u < alap.size(); ++u) {
      alap[u] = horizon - reverse_asap_[u] - latency_[u];
    }
    std::vector<std::size_t> order = topo_;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double mob_a = alap[a] - asap_[a];
      const double mob_b = alap[b] - asap_[b];
      if (mob_a != mob_b) return mob_a < mob_b;
      return weight_[a] > weight_[b];
    });
    return order;
  }

  [[nodiscard]] BalanceResult balance(std::uint64_t budget_cycles) const {
    BalanceResult result;
    result.feasible = budget_cycles >= min_budget_;
    result.slots = schedule(budget_cycles);
    result.budget_cycles = result.slots.size();
    result.conflict_cost = harvest(result.slots, &result.conflicts);
    return result;
  }

  [[nodiscard]] double conflict_cost(std::uint64_t budget_cycles) const {
    return harvest(schedule(budget_cycles), nullptr);
  }

 private:
  using Slots = std::vector<std::vector<std::size_t>>;

  [[nodiscard]] double pair_penalty(std::size_t a, std::size_t b) const {
    const bool a_off = offchip_[a];
    const bool b_off = offchip_[b];
    if (group_[a] == group_[b]) return a_off ? 60.0 : 8.0;
    if (a_off && b_off) return 12.0;
    if (a_off || b_off) return 1.2;
    return 1.0;
  }

  [[nodiscard]] Slots schedule(std::uint64_t budget) const {
    budget = std::max(budget, std::max<std::uint64_t>(min_budget_, 1));
    const std::size_t n = weight_.size();
    Slots slots(budget);
    if (n == 0) return slots;
    const double horizon = static_cast<double>(budget);
    std::vector<double> alap(n);
    for (std::size_t u = 0; u < n; ++u) alap[u] = horizon - reverse_asap_[u] - latency_[u];
    const auto order = mobility_order(budget);
    std::vector<long> placed_slot(n, -1);
    const std::size_t groups = group_ids_.size();
    std::vector<std::uint8_t> seen_pairs(groups * groups, 0);
    const auto placement_cost = [&](std::size_t unit, std::size_t slot) {
      double cost = 0.0;
      for (const auto other : slots[slot]) {
        const double co_weight = std::min(weight_[unit], weight_[other]);
        double penalty = pair_penalty(unit, other);
        if (seen_pairs[group_[unit] * groups + group_[other]] != 0) penalty *= 0.25;
        cost += penalty * co_weight;
      }
      return cost;
    };
    for (const auto unit : order) {
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
        if (best_cost == 0.0 && best_load == 0) break;
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

  [[nodiscard]] double harvest(const Slots& slots, graph::ConflictGraph* conflicts) const {
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

  double frame_weight_ = 1.0;
  std::vector<double> weight_;
  std::vector<std::size_t> group_;
  std::vector<bool> offchip_;
  std::vector<ir::BasicGroupId> group_ids_;
  graph::Digraph dag_;
  std::vector<double> latency_;
  std::vector<double> asap_;
  std::vector<double> reverse_asap_;
  std::vector<std::size_t> topo_;
  std::uint64_t min_budget_ = 0;
  std::uint64_t serial_budget_ = 0;
};

/// Every budget of one body's cost curve, from max(min, 1) to the serial
/// budget (at least one point).
struct EagerCurve {
  std::uint64_t min_budget = 0;
  std::vector<double> cost;

  [[nodiscard]] double at(std::uint64_t budget) const {
    if (budget < min_budget) return cost.front();
    const auto idx = budget - min_budget;
    if (idx >= cost.size()) return cost.back();
    return cost[idx];
  }
  [[nodiscard]] std::uint64_t max_budget() const { return min_budget + cost.size() - 1; }
};

inline EagerCurve eager_curve(const EagerBodyScheduler& scheduler) {
  EagerCurve curve;
  curve.min_budget = std::max<std::uint64_t>(scheduler.min_budget(), 1);
  const auto serial = std::max(scheduler.serial_budget(), curve.min_budget);
  for (std::uint64_t b = curve.min_budget; b <= serial; ++b) {
    curve.cost.push_back(scheduler.conflict_cost(b));
  }
  return curve;
}

/// The greedy knapsack of `scbd::distribute_budget` over eagerly filled
/// curves and eager schedules.
inline ScbdResult eager_distribute_budget(const ir::Application& app,
                                          const ScbdOptions& options) {
  const auto body_ids = app.body_ids();
  std::vector<EagerBodyScheduler> schedulers;
  std::vector<EagerCurve> curves;
  for (const auto id : body_ids) {
    schedulers.emplace_back(app, id);
    curves.push_back(eager_curve(schedulers.back()));
  }
  ScbdResult result;
  std::vector<std::uint64_t> budget(body_ids.size());
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    budget[i] = curves[i].min_budget;
    used += budget[i] * app.body(body_ids[i]).iterations;
    result.conflict_free_cycles += curves[i].max_budget() * app.body(body_ids[i]).iterations;
  }
  result.minimum_cycles = used;
  result.feasible = used <= options.global_budget_cycles;
  if (result.feasible) {
    for (;;) {
      double best_gain_rate = 0.0;
      std::size_t best_body = body_ids.size();
      for (std::size_t i = 0; i < body_ids.size(); ++i) {
        if (budget[i] >= curves[i].max_budget()) continue;
        const auto step_cost = app.body(body_ids[i]).iterations;
        if (used + step_cost > options.global_budget_cycles) continue;
        const double gain = curves[i].at(budget[i]) - curves[i].at(budget[i] + 1);
        const double rate = gain / static_cast<double>(step_cost);
        if (rate > best_gain_rate) {
          best_gain_rate = rate;
          best_body = i;
        }
      }
      if (best_body == body_ids.size()) break;
      budget[best_body] += 1;
      used += app.body(body_ids[best_body]).iterations;
    }
  }
  result.used_cycles = used;
  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    BodyBudget bb;
    bb.body = body_ids[i];
    bb.name = app.body(body_ids[i]).name;
    bb.iterations = app.body(body_ids[i]).iterations;
    bb.min_cycles = curves[i].min_budget;
    bb.serial_cycles = curves[i].max_budget();
    bb.budget_cycles = budget[i];
    bb.schedule = schedulers[i].balance(budget[i]);
    result.conflicts.merge(bb.schedule.conflicts);
    result.conflict_cost += bb.schedule.conflict_cost;
    result.bodies.push_back(std::move(bb));
  }
  return result;
}

}  // namespace dtse::scbd::oracle
