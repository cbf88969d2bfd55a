#include "scbd/budget_distribution.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>

#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace dtse::scbd {

namespace {

/// Conflict-cost curve of one body: cost at every per-iteration budget from
/// the critical-path minimum (at least one cycle) up to the conflict-free
/// serial budget.  A point is scheduled the first time it is read: the
/// greedy reads only the budgets it reaches and the one above each.
class CostCurve {
 public:
  explicit CostCurve(const BodyScheduler& scheduler)
      : scheduler_(&scheduler),
        min_budget_(std::max<std::uint64_t>(scheduler.min_budget(), 1)),
        cost_(std::max(scheduler.serial_budget(), min_budget_) - min_budget_ + 1) {}

  [[nodiscard]] std::uint64_t min_budget() const { return min_budget_; }
  [[nodiscard]] std::uint64_t max_budget() const { return min_budget_ + cost_.size() - 1; }

  /// Cost at `budget`, clamped into the curve.
  [[nodiscard]] double at(std::uint64_t budget) {
    const auto idx = std::min<std::uint64_t>(budget - std::min(budget, min_budget_),
                                             cost_.size() - 1);
    auto& cost = cost_[idx];
    if (!cost) cost = scheduler_->conflict_cost(min_budget_ + idx);
    return *cost;
  }

  /// Points scheduled so far.
  [[nodiscard]] std::uint64_t scheduled() const {
    return static_cast<std::uint64_t>(
        std::count_if(cost_.begin(), cost_.end(), [](const auto& c) { return c.has_value(); }));
  }

 private:
  const BodyScheduler* scheduler_;
  std::uint64_t min_budget_;
  std::vector<std::optional<double>> cost_;  ///< at budget min_budget_ + index
};

}  // namespace

ScbdResult distribute_budget(const ir::Application& app, const ScbdOptions& options) {
  DTSE_CHECK(options.global_budget_cycles > 0, "global cycle budget must be positive");

  // One scheduling context per body: every cost-curve point the greedy reads
  // and the final schedule reuse its placement order and tables.  (The
  // schedulers are all built before the curves point at them.)
  const auto body_ids = app.body_ids();
  std::vector<BodyScheduler> schedulers;
  schedulers.reserve(body_ids.size());
  for (const auto id : body_ids) schedulers.emplace_back(app, id);
  std::vector<CostCurve> curves(schedulers.begin(), schedulers.end());

  ScbdResult result;
  // Start every body at its minimum; track global usage.
  std::vector<std::uint64_t> budget(body_ids.size());
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    budget[i] = curves[i].min_budget();
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
  // List schedules run: the curve points read plus one final schedule per
  // body.
  std::uint64_t schedules = body_ids.size();
  for (const auto& curve : curves) schedules += curve.scheduled();
  obs::TelemetryRegistry::global().counter("scbd.schedules").add(schedules);
  for (std::size_t i = 0; i < body_ids.size(); ++i) {
    BodyBudget bb;
    bb.body = body_ids[i];
    bb.name = app.body(body_ids[i]).name;
    bb.iterations = app.body(body_ids[i]).iterations;
    bb.min_cycles = curves[i].min_budget();
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
