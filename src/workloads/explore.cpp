#include "workloads/explore.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <utility>

#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "workloads/profile_store.hpp"

namespace dtse::workloads {

namespace {

// The sweep axes, fixed for every workload: storage cycle budgets as a
// percentage of the real-time budget (Table 3), per-workload memory counts
// (Table 4) and the shared organization's memory counts.
constexpr std::array<std::uint64_t, 3> kBudgetPercents = {100, 75, 58};
const std::vector<int> kAllocationCounts = {4, 5, 8, 10, 14};
const std::vector<int> kSharedCounts = {4, 6, 8, 10, 12, 14};

/// The entropy-coder roster: the codec workloads re-staged with each
/// alternative backend.  Swapping the coder swaps the on-chip state arrays
/// the model prices (Huffman tree bank vs Rice accumulators vs rANS tables).
struct RosterSweep {
  std::string_view workload;
  std::array<entropy::Backend, 2> backends;
};
constexpr std::array<RosterSweep, 2> kEntropyRoster = {{
    {"btpc", {entropy::Backend::kRice, entropy::Backend::kExpGolomb}},
    {"hyperspec", {entropy::Backend::kExpGolomb, entropy::Backend::kRans}},
}};

obs::TelemetryRegistry& registry() { return obs::TelemetryRegistry::global(); }

/// Verify -> profile -> tune one model, each step guarded and spanned.
StagedModel stage(const Workload* workload, const WorkloadOptions& options,
                  std::string label, persist::ProfileCache* cache) {
  StagedModel model;
  model.label = std::move(label);
  const char* step = "lookup";
  try {
    DTSE_CHECK(workload != nullptr, "null workload pointer");
    step = "verify";
    {
      obs::Span span(&registry(), "pipeline.verify/" + model.label, "pipeline");
      model.golden = workload->verify(options);
    }
    if (!model.golden.passed) {
      model.failure = WorkloadFailure{model.label, step, model.golden.to_string()};
      return model;
    }
    step = "profile";
    {
      obs::Span span(&registry(), "pipeline.profile/" + model.label, "pipeline");
      model.profiled = profile_cached(*workload, options, cache);
    }
    step = "tuned_variant";
    obs::Span span(&registry(), "pipeline.tune/" + model.label, "pipeline");
    model.tuned = workload->tuned_variant(model.profiled);
  } catch (const std::exception& e) {
    model.failure = WorkloadFailure{model.label, step, e.what()};
  }
  return model;
}

/// The row `MemoryAllocator::allocate` would pick among the swept counts
/// (`alloc::outranks` over feasibility and the weighted on-chip cost), or
/// none when no row is feasible.
std::optional<std::size_t> best_row(const std::vector<core::Variant>& rows,
                                    const memlib::CostWeights& weights) {
  const auto scalar = [&weights](const core::Variant& row) {
    const auto& summary = row.eval.summary;
    return weights.scalarize(
        memlib::CostTerm{summary.onchip_area_mm2, summary.onchip_power_mw});
  };
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Only a feasible row becomes `best`, so an incumbent is always feasible.
    if (alloc::outranks(rows[i].eval.feasible, scalar(rows[i]), best.has_value(),
                        best ? scalar(rows[*best]) : 0.0)) {
      best = i;
    }
  }
  return best;
}

}  // namespace

std::vector<WorkloadFailure> Exploration::failures() const {
  std::vector<WorkloadFailure> all;
  for (const auto& entry : workloads) {
    if (entry.staged.failure) all.push_back(*entry.staged.failure);
  }
  for (const auto& entry : roster) {
    if (entry.staged.failure) all.push_back(*entry.staged.failure);
  }
  return all;
}

Exploration explore(const core::Explorer& explorer, const ExploreConfig& config,
                    const core::ExplorerOptions& options) {
  DTSE_CHECK(!config.workloads.empty(), "exploration needs at least one workload");
  Exploration result;

  // Staging: the workloads, then the roster variants of those that staged.
  for (std::size_t i = 0; i < config.workloads.size(); ++i) {
    const auto* workload = config.workloads[i];
    auto label = workload != nullptr ? std::string(workload->name())
                                     : "<null #" + std::to_string(i) + ">";
    result.workloads.push_back(
        {stage(workload, config.workload_options, std::move(label), config.profile_cache),
         {}, {}, {}});
  }
  for (const auto& sweep : kEntropyRoster) {
    const auto it = std::ranges::find_if(result.workloads, [&sweep](const auto& entry) {
      return !entry.staged.failure && entry.staged.label == sweep.workload;
    });
    if (it == result.workloads.end()) continue;
    const auto* workload = config.workloads[static_cast<std::size_t>(
        it - result.workloads.begin())];
    for (const auto backend : sweep.backends) {
      auto variant_options = config.workload_options;
      variant_options.entropy_backend = backend;
      auto label = std::string(sweep.workload) + "[" +
                   std::string(entropy::to_string(backend)) + "]";
      result.roster.push_back(
          {std::string(sweep.workload),
           stage(workload, variant_options, std::move(label), config.profile_cache),
           {}});
    }
  }

  // Per-model feedback; every model that passes it joins the shared
  // organization, in staging order.
  std::vector<std::pair<std::string, const ir::Application*>> apps;
  const std::uint64_t full = options.real_time_budget_cycles;
  std::vector<std::uint64_t> budgets;
  for (const auto percent : kBudgetPercents) budgets.push_back(full * percent / 100);
  for (auto& entry : result.workloads) {
    if (entry.staged.failure) continue;
    const auto& [label, golden, failure, profiled, tuned] = entry.staged;
    {
      obs::Span span(&registry(), "pipeline.macp/" + label, "pipeline");
      entry.macp = explorer.analyze_critical_path(profiled, options);
    }
    {
      obs::Span span(&registry(), "pipeline.budget_sweep/" + label, "pipeline");
      entry.budgets = explorer.explore_cycle_budgets(tuned, budgets, options);
    }
    obs::Span span(&registry(), "pipeline.count_sweep/" + label, "pipeline");
    entry.allocations =
        explorer.explore_allocation_counts(tuned, kAllocationCounts, options);
    apps.emplace_back(label, &tuned);
  }
  for (auto& entry : result.roster) {
    if (entry.staged.failure) continue;
    obs::Span span(&registry(), "pipeline.evaluate/" + entry.staged.label, "pipeline");
    try {
      entry.eval = explorer.evaluate(entry.staged.tuned, options);
      apps.emplace_back(entry.staged.label, &entry.staged.tuned);
    } catch (const std::exception& e) {
      entry.staged.failure = WorkloadFailure{entry.staged.label, "evaluate", e.what()};
    }
  }
  if (apps.size() < 2) return result;
  for (const auto& [label, app] : apps) result.shared_labels.push_back(label);

  obs::Span sweep_span(&registry(), "pipeline.shared_sweep", "pipeline");
  const auto merged = core::merge_applications(apps, "shared");
  result.shared = explorer.explore_allocation_counts(merged, kSharedCounts, options);
  sweep_span.finish();

  obs::Span span(&registry(), "pipeline.attribution", "pipeline");
  result.best = best_row(result.shared, options.allocation.solver.weights);
  if (result.best) {
    result.attribution =
        explorer.attribute(apps, result.shared[*result.best].eval, options);
  }
  return result;
}

}  // namespace dtse::workloads
