#include "scbd/budget_distribution.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "support/check.hpp"

namespace dtse::scbd {

namespace {

/// Conflict-cost curve of one body: cost at every per-iteration budget from
/// the critical-path minimum up to the conflict-free serial budget.
struct CostCurve {
  std::uint64_t min_budget = 0;
  std::vector<double> cost;  ///< cost[i] = conflict cost at budget min_budget + i

  [[nodiscard]] double at(std::uint64_t budget) const {
    if (budget < min_budget) return cost.front();
    const auto idx = budget - min_budget;
    if (idx >= cost.size()) return cost.back();
    return cost[idx];
  }

  [[nodiscard]] std::uint64_t max_budget() const {
    return min_budget + (cost.empty() ? 0 : cost.size() - 1);
  }
};

CostCurve build_curve(const BodyScheduler& scheduler) {
  CostCurve curve;
  curve.min_budget = scheduler.min_budget();
  const auto serial = std::max<std::uint64_t>(scheduler.serial_budget(),
                                              std::max<std::uint64_t>(curve.min_budget, 1));
  for (std::uint64_t b = std::max<std::uint64_t>(curve.min_budget, 1); b <= serial; ++b) {
    curve.cost.push_back(scheduler.conflict_cost(b));
  }
  if (curve.min_budget == 0) curve.min_budget = 1;  // empty bodies schedule in 1 cycle
  if (curve.cost.empty()) curve.cost.push_back(0.0);
  return curve;
}

}  // namespace

ScbdResult distribute_budget(const ir::Application& app, const ScbdOptions& options) {
  DTSE_CHECK(options.global_budget_cycles > 0, "global cycle budget must be positive");

  // One scheduling context per body: every cost-curve step and the final
  // schedule reuse its unit DAG and static bounds.
  const auto body_ids = app.body_ids();
  std::vector<BodyScheduler> schedulers;
  std::vector<CostCurve> curves;
  schedulers.reserve(body_ids.size());
  curves.reserve(body_ids.size());
  for (const auto id : body_ids) {
    schedulers.emplace_back(app, id);
    curves.push_back(build_curve(schedulers.back()));
  }

  ScbdResult result;
  // Start every body at its minimum; track global usage.
  std::vector<std::uint64_t> budget(body_ids.size());
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    budget[i] = std::max<std::uint64_t>(curves[i].min_budget, 1);
    used += budget[i] * app.body(body_ids[i]).iterations;
  }
  result.minimum_cycles = used;
  result.feasible = used <= options.global_budget_cycles;

  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    result.conflict_free_cycles += curves[i].max_budget() * app.body(body_ids[i]).iterations;
  }

  // Greedy knapsack: repeatedly buy the budget increment with the best
  // conflict-cost reduction per global cycle spent.
  if (result.feasible) {
    for (;;) {
      double best_gain_rate = 0.0;
      std::size_t best_body = body_ids.size();
      for (std::size_t i = 0; i < body_ids.size(); ++i) {
        if (budget[i] >= curves[i].max_budget()) continue;
        const auto iterations = app.body(body_ids[i]).iterations;
        const auto step_cost = iterations;  // +1 cycle/iteration costs this much
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

std::string ScbdResult::to_string() const {
  std::ostringstream os;
  os << "SCBD: used " << used_cycles << " cycles (minimum " << minimum_cycles
     << ", conflict-free " << conflict_free_cycles << "), conflict cost " << conflict_cost
     << (feasible ? "" : " [INFEASIBLE]") << '\n';
  for (const auto& body : bodies) {
    os << "  " << body.name << ": budget " << body.budget_cycles << " [" << body.min_cycles
       << ".." << body.serial_cycles << "] x" << body.iterations << " iterations\n";
  }
  return os.str();
}

}  // namespace dtse::scbd
