#include "core/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace dtse::core {

namespace {

/// Prices the merged allocation with every memory's member set restricted to
/// the first `prefix_groups` merged basic groups (a registration-order
/// prefix of the workloads — merge_applications numbers groups per-workload
/// consecutively).  Member sets are priced through the same
/// `AssignmentProblem` machinery the allocator used (`problem` must be built
/// over the same on-chip groups), so the full prefix reproduces
/// `allocation.summary` bit for bit by construction — restricted sets never
/// need more ports than their feasible superset, so `cost_of_members`
/// always prices them.
memlib::CostSummary price_prefix(const alloc::AssignmentProblem& problem,
                                 const alloc::AllocationResult& allocation,
                                 std::uint32_t prefix_groups) {
  // The problem's groups are in ascending id order, as are each memory's
  // members; map ids back to problem-local indices by binary search.
  const auto& problem_groups = problem.groups();
  const auto index_of = [&problem_groups](ir::BasicGroupId id) {
    const auto it = std::lower_bound(problem_groups.begin(), problem_groups.end(), id);
    DTSE_CHECK(it != problem_groups.end() && *it == id,
               "allocated group missing from the assignment problem");
    return static_cast<std::size_t>(it - problem_groups.begin());
  };

  memlib::CostSummary priced;
  for (const auto& mem : allocation.onchip) {
    std::vector<std::size_t> members;
    for (const auto id : mem.groups) {
      if (id.value() < prefix_groups) members.push_back(index_of(id));
    }
    if (members.empty()) continue;
    const auto term = problem.cost_of_members(members);
    DTSE_ASSERT(term.has_value(), "subset of a feasible memory must be feasible");
    priced.onchip_area_mm2 += term->area_mm2;
    priced.onchip_power_mw += term->power_mw;
  }
  // Every off-chip channel serves exactly one basic group, so a channel is
  // wholly owned by the prefix that contains its group.
  for (const auto& channel : allocation.offchip) {
    if (channel.groups.front().value() < prefix_groups) {
      priced.offchip_power_mw += channel.power_mw;
    }
  }
  return priced;
}

/// `value` rounded to a multiple of the ulp of `total`.  Differences of such
/// multiples, and their running sums, are exact while they stay below twice
/// `total` — so marginals taken between snapped prefix prices add back to
/// the merged triple with zero drift.  (Plain differences cannot promise
/// that: when the running sum sits half an ulp off the target's grid, round
/// half to even leaves an odd target unreachable by any increment.)
double snap_to_ulp_of(double value, double total) {
  if (total == 0.0) return value;
  const double grid = std::ldexp(1.0, std::ilogb(total) - 52);
  return std::nearbyint(value / grid) * grid;
}

}  // namespace

ir::Application merge_applications(
    const std::vector<std::pair<std::string, const ir::Application*>>& apps,
    std::string merged_name) {
  DTSE_CHECK(!apps.empty(), "merging needs at least one application");
  ir::Application merged(std::move(merged_name));
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (std::size_t j = i + 1; j < apps.size(); ++j) {
      DTSE_CHECK(apps[i].first != apps[j].first,
                 "duplicate label in merge: " + apps[i].first);
    }
  }
  for (const auto& [label, app] : apps) {
    DTSE_CHECK(app != nullptr, "null application under label " + label);
    DTSE_CHECK(!label.empty(), "merged applications need labels");
    // Groups first: ids of this app shift up by the number of groups already
    // merged, so accesses remap by a constant offset.
    const auto offset = static_cast<std::uint32_t>(merged.group_count());
    for (const auto id : app->group_ids()) {
      auto group = app->group(id);
      group.name = label + "." + group.name;
      merged.add_group(std::move(group));
    }
    for (const auto body_id : app->body_ids()) {
      auto body = app->body(body_id);
      body.name = label + "." + body.name;
      for (auto& access : body.accesses) {
        access.group = ir::BasicGroupId(access.group.value() + offset);
      }
      merged.add_body(std::move(body));
    }
    for (const auto id : app->group_ids()) {
      if (const auto* profile = app->reuse_profile(id)) {
        merged.set_reuse_profile(ir::BasicGroupId(id.value() + offset), *profile);
      }
    }
  }
  merged.validate();
  return merged;
}

std::string Evaluation::to_string() const {
  if (!error.empty()) {
    return "[ERROR] " + error + (timed_out ? " [TIMED OUT]" : "");
  }
  std::ostringstream os;
  os << summary << (feasible ? "" : " [INFEASIBLE]") << ", spare cycles " << spare_cycles;
  if (timed_out) os << " [TIMED OUT]";
  return os.str();
}

Evaluation Explorer::evaluate(const ir::Application& app,
                              const ExplorerOptions& options) const {
  DTSE_CHECK(options.storage_budget_cycles <= options.real_time_budget_cycles,
             "storage budget cannot exceed the real-time budget");
  obs::TelemetryRegistry::global().counter("explore.evaluations").add(1);
  Evaluation eval;

  auto scbd_options = options.scbd;
  scbd_options.global_budget_cycles = options.storage_budget_cycles;
  eval.scbd = scbd::distribute_budget(app, scbd_options);

  auto alloc_options = options.allocation;
  // Power averages over the frame period set by the real-time constraint,
  // not over the (possibly tightened) storage budget.
  alloc_options.frame_cycles = options.real_time_budget_cycles;
  // Plumb the cancellation source into the solvers (they poll it at coarse
  // strides and return their best-so-far when it fires).
  if (alloc_options.solver.cancel == nullptr) {
    alloc_options.solver.cancel = options.cancel;
  }
  eval.allocation = allocator_.allocate(app, eval.scbd.conflicts, alloc_options);

  eval.summary = eval.allocation.summary;
  eval.spare_cycles = eval.scbd.spare_cycles(options.real_time_budget_cycles);
  eval.feasible = eval.scbd.feasible && eval.allocation.feasible;
  eval.timed_out = options.cancel != nullptr && options.cancel->cancelled();
  return eval;
}

namespace {

/// The scaffolding every explore_* sweep shares.  Evaluates `points` points,
/// `evaluate_point(i, options)` each under a span named `span_name(i)`, on
/// `options.parallelism` workers, and returns them in index order.  Every
/// evaluation is a pure function of its inputs, so the result is
/// bit-identical to a serial run.  When the sweep really runs on several
/// workers, each point's annealing chains run serially: the solver's result
/// does not depend on `sa_parallelism`, so this only prevents
/// oversubscription (sweep workers x chain workers).  A throwing point
/// becomes an infeasible evaluation carrying the message, flagged
/// `timed_out` when `options.cancel` has fired, never a dead sweep.
template <typename SpanName, typename EvaluatePoint>
std::vector<Evaluation> run_sweep(std::size_t points, const ExplorerOptions& options,
                                  SpanName&& span_name, EvaluatePoint&& evaluate_point) {
  auto point_options = options;
  if (points > 1 && support::effective_parallelism(options.parallelism) > 1) {
    point_options.allocation.solver.sa_parallelism = 1;
  }
  std::vector<Evaluation> evals(points);
  support::parallel_for(points, options.parallelism, [&](std::size_t i) {
    obs::Span span(&obs::TelemetryRegistry::global(), span_name(i), "explore");
    try {
      evals[i] = evaluate_point(i, point_options);
    } catch (const std::exception& e) {
      evals[i].error = e.what();
      evals[i].timed_out = options.cancel != nullptr && options.cancel->cancelled();
    }
  });
  return evals;
}

}  // namespace

graph::MacpReport Explorer::analyze_critical_path(const ir::Application& app,
                                                  const ExplorerOptions&) const {
  return graph::analyze_macp(app);
}

std::vector<Variant> Explorer::explore_variants(
    std::vector<std::pair<std::string, ir::Application>> variants,
    const ExplorerOptions& options) const {
  auto evals = run_sweep(
      variants.size(), options,
      [&](std::size_t i) { return "explore.variant/" + variants[i].first; },
      [&](std::size_t i, const ExplorerOptions& point_options) {
        return evaluate(variants[i].second, point_options);
      });
  std::vector<Variant> result;
  result.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    result.push_back(
        {std::move(variants[i].first), std::move(variants[i].second), std::move(evals[i])});
  }
  return result;
}

std::vector<BudgetPoint> Explorer::explore_cycle_budgets(
    const ir::Application& app, const std::vector<std::uint64_t>& budgets,
    const ExplorerOptions& options) const {
  auto evals = run_sweep(
      budgets.size(), options,
      [&](std::size_t i) { return "explore.cycle_budget/" + std::to_string(budgets[i]); },
      [&](std::size_t i, ExplorerOptions point_options) {
        point_options.storage_budget_cycles = budgets[i];
        return evaluate(app, point_options);
      });
  std::vector<BudgetPoint> points(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    auto& point = points[i];
    point.requested_budget = budgets[i];
    point.used_cycles = evals[i].scbd.used_cycles;
    point.spare_cycles = evals[i].spare_cycles;
    point.spare_percent = 100.0 * static_cast<double>(point.spare_cycles) /
                          static_cast<double>(options.real_time_budget_cycles);
    point.eval = std::move(evals[i]);
  }
  return points;
}

std::string SharedEvaluation::to_string() const {
  std::ostringstream os;
  os << "shared: " << merged.to_string();
  for (const auto& share : per_workload) {
    os << "\n  " << share.label << ": +" << share.marginal.onchip_area_mm2
       << " mm^2, +" << share.marginal.onchip_power_mw << " mW on-chip, +"
       << share.marginal.offchip_power_mw << " mW off-chip";
  }
  return os.str();
}

SharedEvaluation Explorer::evaluate_shared_per_workload(
    const std::vector<std::pair<std::string, const ir::Application*>>& apps,
    const ExplorerOptions& options) const {
  return attribute(apps, evaluate(merge_applications(apps, "shared"), options), options);
}

SharedEvaluation Explorer::attribute(
    const std::vector<std::pair<std::string, const ir::Application*>>& apps,
    Evaluation merged_eval, const ExplorerOptions& options) const {
  obs::Span span(&obs::TelemetryRegistry::global(), "explore.shared_attribution",
                 "explore");
  span.arg("workloads", static_cast<double>(apps.size()));

  const auto merged = merge_applications(apps, "shared");
  // merge_applications appends each workload's groups as one consecutive id
  // block, so prefix i of the workload list owns group ids [0, boundary[i]).
  std::vector<std::uint32_t> boundaries;
  boundaries.reserve(apps.size());
  std::uint32_t group_count = 0;
  for (const auto& [label, app] : apps) {
    group_count += static_cast<std::uint32_t>(app->group_count());
    boundaries.push_back(group_count);
  }

  SharedEvaluation result;
  result.merged = std::move(merged_eval);

  // The same assignment problem the allocator priced the winning assignment
  // on: same on-chip partition, same conflict graph, same frame cycles
  // (evaluate() charges power over the real-time frame period).
  const auto partition = alloc::MemoryAllocator::partition_groups(merged);
  const alloc::AssignmentProblem problem(merged, partition.first,
                                         result.merged.scbd.conflicts, library_,
                                         options.real_time_budget_cycles);

  memlib::CostSummary running;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    WorkloadShare share;
    share.label = apps[i].first;
    share.cumulative = price_prefix(problem, result.merged.allocation, boundaries[i]);
    for (const auto field : {&memlib::CostSummary::onchip_area_mm2,
                             &memlib::CostSummary::onchip_power_mw,
                             &memlib::CostSummary::offchip_power_mw}) {
      const double snapped =
          snap_to_ulp_of(share.cumulative.*field, result.merged.summary.*field);
      share.marginal.*field = snapped - running.*field;
      running.*field += share.marginal.*field;
    }
    result.per_workload.push_back(std::move(share));
  }

  // The reconciliation contract: re-pricing the full prefix — and therefore
  // the marginal sum — lands exactly on the merged triple.
  DTSE_CHECK(running.onchip_area_mm2 == result.merged.summary.onchip_area_mm2 &&
                 running.onchip_power_mw == result.merged.summary.onchip_power_mw &&
                 running.offchip_power_mw == result.merged.summary.offchip_power_mw,
             "per-workload attribution failed to reconcile with the merged triple");
  return result;
}

std::vector<Variant> Explorer::explore_shared_allocation_counts(
    const std::vector<std::pair<std::string, const ir::Application*>>& apps,
    const std::vector<int>& counts, const ExplorerOptions& options) const {
  return explore_allocation_counts(merge_applications(apps, "shared"), counts, options);
}

std::vector<Variant> Explorer::explore_allocation_counts(
    const ir::Application& app, const std::vector<int>& counts,
    const ExplorerOptions& options) const {
  auto evals = run_sweep(
      counts.size(), options,
      [&](std::size_t i) {
        return "explore.alloc/" + app.name() + "/" + std::to_string(counts[i]);
      },
      [&](std::size_t i, ExplorerOptions point_options) {
        point_options.allocation.onchip_memories = counts[i];
        return evaluate(app, point_options);
      });
  std::vector<Variant> result;
  result.reserve(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    result.push_back({std::to_string(counts[i]) + " on-chip memories", app, std::move(evals[i])});
  }
  return result;
}

}  // namespace dtse::core
