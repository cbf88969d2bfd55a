// Tests for the Explorer feedback driver and the BTPC case-study wiring.
// Uses a small profiled frame so the whole methodology runs in seconds.
#include <gtest/gtest.h>

#include <functional>

#include "core/explorer.hpp"
#include "structuring/structuring.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"
#include "workloads/btpc_workload.hpp"

namespace dtse::core {
namespace {

using workloads::btpc_best_variant;
using workloads::btpc_hierarchy_variants;
using workloads::btpc_structuring_variants;

/// Shared small profile (profiling dominates test time).
const ir::Application& small_profile() {
  static const ir::Application app =
      workloads::BtpcWorkload{}.profile({.profile_size = 96});
  return app;
}

Explorer make_explorer() { return Explorer{memlib::MemoryLibrary{}}; }

TEST(Explorer, EvaluateProducesFeasibleFeedback) {
  const auto explorer = make_explorer();
  const auto eval = explorer.evaluate(small_profile());
  EXPECT_TRUE(eval.feasible);
  EXPECT_GT(eval.summary.onchip_area_mm2, 0.0);
  EXPECT_GT(eval.summary.onchip_power_mw, 0.0);
  EXPECT_GT(eval.summary.offchip_power_mw, 0.0);
  EXPECT_GT(eval.spare_cycles, 0u);
  EXPECT_FALSE(eval.allocation.onchip.empty());
  EXPECT_FALSE(eval.allocation.offchip.empty());
}

TEST(Explorer, EvaluateIsDeterministic) {
  const auto explorer = make_explorer();
  const auto a = explorer.evaluate(small_profile());
  const auto b = explorer.evaluate(small_profile());
  EXPECT_DOUBLE_EQ(a.summary.onchip_area_mm2, b.summary.onchip_area_mm2);
  EXPECT_DOUBLE_EQ(a.summary.onchip_power_mw, b.summary.onchip_power_mw);
  EXPECT_DOUBLE_EQ(a.summary.offchip_power_mw, b.summary.offchip_power_mw);
}

TEST(Explorer, ParallelSweepsMatchSerialBitForBit) {
  const auto explorer = make_explorer();
  ExplorerOptions serial;
  serial.parallelism = 1;
  ExplorerOptions parallel = serial;
  parallel.parallelism = 4;  // oversubscribed on small hosts, which is fine

  const std::vector<std::uint64_t> budgets = {20'000'000, 14'000'000, 11'000'000,
                                              9'000'000};
  const auto serial_points = explorer.explore_cycle_budgets(small_profile(), budgets, serial);
  const auto parallel_points =
      explorer.explore_cycle_budgets(small_profile(), budgets, parallel);
  ASSERT_EQ(serial_points.size(), parallel_points.size());
  for (std::size_t i = 0; i < serial_points.size(); ++i) {
    EXPECT_EQ(serial_points[i].requested_budget, parallel_points[i].requested_budget);
    EXPECT_EQ(serial_points[i].used_cycles, parallel_points[i].used_cycles);
    EXPECT_EQ(serial_points[i].spare_cycles, parallel_points[i].spare_cycles);
    EXPECT_DOUBLE_EQ(serial_points[i].eval.summary.onchip_area_mm2,
                     parallel_points[i].eval.summary.onchip_area_mm2);
    EXPECT_DOUBLE_EQ(serial_points[i].eval.summary.onchip_power_mw,
                     parallel_points[i].eval.summary.onchip_power_mw);
    EXPECT_DOUBLE_EQ(serial_points[i].eval.summary.offchip_power_mw,
                     parallel_points[i].eval.summary.offchip_power_mw);
  }

  auto label_variants = [&] {
    std::vector<std::pair<std::string, ir::Application>> variants;
    variants.emplace_back("base", small_profile());
    variants.emplace_back("copy", small_profile());
    variants.emplace_back("third", small_profile());
    return variants;
  };
  const auto serial_variants = explorer.explore_variants(label_variants(), serial);
  const auto parallel_variants = explorer.explore_variants(label_variants(), parallel);
  ASSERT_EQ(serial_variants.size(), parallel_variants.size());
  for (std::size_t i = 0; i < serial_variants.size(); ++i) {
    EXPECT_EQ(serial_variants[i].label, parallel_variants[i].label);
    EXPECT_DOUBLE_EQ(serial_variants[i].eval.summary.onchip_area_mm2,
                     parallel_variants[i].eval.summary.onchip_area_mm2);
    EXPECT_DOUBLE_EQ(serial_variants[i].eval.summary.onchip_power_mw,
                     parallel_variants[i].eval.summary.onchip_power_mw);
    EXPECT_DOUBLE_EQ(serial_variants[i].eval.summary.offchip_power_mw,
                     parallel_variants[i].eval.summary.offchip_power_mw);
  }

  const auto serial_counts =
      explorer.explore_allocation_counts(small_profile(), {4, 6, 8}, serial);
  const auto parallel_counts =
      explorer.explore_allocation_counts(small_profile(), {4, 6, 8}, parallel);
  ASSERT_EQ(serial_counts.size(), parallel_counts.size());
  for (std::size_t i = 0; i < serial_counts.size(); ++i) {
    EXPECT_EQ(serial_counts[i].label, parallel_counts[i].label);
    EXPECT_DOUBLE_EQ(serial_counts[i].eval.summary.onchip_area_mm2,
                     parallel_counts[i].eval.summary.onchip_area_mm2);
  }
}

TEST(Explorer, StorageBudgetCannotExceedRealTime) {
  const auto explorer = make_explorer();
  ExplorerOptions options;
  options.storage_budget_cycles = options.real_time_budget_cycles + 1;
  EXPECT_THROW((void)explorer.evaluate(small_profile(), options),
               support::ContractError);
}

TEST(Explorer, SweepSurvivesAThrowingPointAndReportsIt) {
  // Graceful degradation: a sweep point whose evaluation throws (here the
  // budget contract, a deterministic trigger) comes back as a reported
  // error row; the healthy points are unaffected and the sweep completes.
  const auto explorer = make_explorer();
  ExplorerOptions options;
  const std::vector<std::uint64_t> budgets = {
      options.real_time_budget_cycles, options.real_time_budget_cycles + 1,
      options.real_time_budget_cycles * 3 / 4};
  const auto points = explorer.explore_cycle_budgets(small_profile(), budgets, options);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(points[0].eval.error.empty());
  EXPECT_TRUE(points[0].eval.feasible);
  EXPECT_FALSE(points[1].eval.error.empty());
  EXPECT_FALSE(points[1].eval.feasible);
  EXPECT_NE(points[1].eval.to_string().find("[ERROR]"), std::string::npos);
  EXPECT_TRUE(points[2].eval.error.empty());
  EXPECT_TRUE(points[2].eval.feasible);
}

template <typename Row>
std::vector<Evaluation> evaluations_of(std::vector<Row> rows) {
  std::vector<Evaluation> evals;
  for (auto& row : rows) evals.push_back(std::move(row.eval));
  return evals;
}

TEST(Explorer, PreCancelledSweepCompletesWithTimedOutPoints) {
  // A fired token must degrade, not abort: every point of every sweep kind
  // still gets a row, flagged timed_out, with the solvers' best-effort answer.
  // The second cycle budget exceeds the real-time budget, so that point
  // throws; it is flagged as well.
  const auto explorer = make_explorer();
  using Sweep = std::function<std::vector<Evaluation>(const ExplorerOptions&)>;
  const std::vector<std::pair<std::string, Sweep>> sweeps = {
      {"variants",
       [&](const ExplorerOptions& options) {
         return evaluations_of(explorer.explore_variants(
             {{"a", small_profile()}, {"b", small_profile()}}, options));
       }},
      {"cycle budgets",
       [&](const ExplorerOptions& options) {
         return evaluations_of(explorer.explore_cycle_budgets(
             small_profile(), {20'000'000, 20'000'001}, options));
       }},
      {"allocation counts",
       [&](const ExplorerOptions& options) {
         return evaluations_of(
             explorer.explore_allocation_counts(small_profile(), {5, 8}, options));
       }},
  };
  support::CancellationToken cancelled;
  cancelled.cancel();
  const support::CancellationToken unfired;
  for (const auto& [name, sweep] : sweeps) {
    ExplorerOptions options;
    options.cancel = &cancelled;
    const auto timed_out = sweep(options);
    ASSERT_EQ(timed_out.size(), 2u) << name;
    for (const auto& eval : timed_out) {
      EXPECT_TRUE(eval.timed_out) << name;
      EXPECT_NE(eval.to_string().find("[TIMED OUT]"), std::string::npos) << name;
    }

    // An un-fired token leaves the sweep bit-identical to no token at all.
    options.cancel = &unfired;
    const auto with_token = sweep(options);
    const auto without = sweep({});
    ASSERT_EQ(with_token.size(), without.size()) << name;
    for (std::size_t i = 0; i < without.size(); ++i) {
      EXPECT_FALSE(with_token[i].timed_out) << name;
      EXPECT_EQ(with_token[i].summary.onchip_area_mm2, without[i].summary.onchip_area_mm2)
          << name;
      EXPECT_EQ(with_token[i].summary.onchip_power_mw, without[i].summary.onchip_power_mw)
          << name;
    }
  }
}

TEST(Explorer, MacpIsBelowRealTimeBudget) {
  const auto explorer = make_explorer();
  const auto report = explorer.analyze_critical_path(small_profile());
  EXPECT_GT(report.macp_cycles, 0.0);
  // The paper: "For the BTPC application, there is no such problem."
  EXPECT_TRUE(report.feasible_within(20'000'000.0));
  EXPECT_GT(report.parallelism_headroom(), 1.0);
}

TEST(Explorer, BudgetSweepSparesGrowAndCostsDontImprove) {
  const auto explorer = make_explorer();
  const auto best = btpc_best_variant(small_profile());
  const std::vector<std::uint64_t> budgets = {20'000'000, 16'000'000, 12'000'000};
  const auto points = explorer.explore_cycle_budgets(best, budgets);
  ASSERT_EQ(points.size(), 3u);
  memlib::CostWeights weights;
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].spare_cycles, points[i - 1].spare_cycles);
    EXPECT_GE(weights.scalarize(points[i].eval.summary),
              weights.scalarize(points[i - 1].eval.summary) - 1e-6)
        << "tightening the budget must not make the organization cheaper";
  }
}

TEST(Explorer, AllocationCountSweep) {
  const auto explorer = make_explorer();
  const auto best = btpc_best_variant(small_profile());
  const auto variants = explorer.explore_allocation_counts(best, {5, 8, 14});
  ASSERT_EQ(variants.size(), 3u);
  for (const auto& v : variants) EXPECT_TRUE(v.eval.feasible) << v.label;
  // Sub-linear energy: more memories -> less on-chip power (paper Table 4).
  EXPECT_GT(variants.front().eval.summary.onchip_power_mw,
            variants.back().eval.summary.onchip_power_mw);
}

TEST(CaseStudy, ProfileContainsThePaperArrays) {
  const auto& app = small_profile();
  for (const auto* name :
       {"image", "pyr", "ridge", "huff_weight", "huff_parent", "huff_left",
        "huff_right", "huff_leaf", "code_stack", "esc_fifo", "coder_select",
        "pred_ctx", "quant_tab", "dequant_tab", "level_offsets", "stats_hist",
        "out_buf", "bit_accum", "base_buf"}) {
    EXPECT_TRUE(app.find_group(name).has_value()) << "missing array " << name;
  }
}

TEST(CaseStudy, StructuringVariantsAreWellFormed) {
  const auto variants = btpc_structuring_variants(small_profile());
  ASSERT_EQ(variants.size(), 3u);
  EXPECT_EQ(variants[0].first, "No structuring");
  EXPECT_NE(variants[1].first.find("compacted"), std::string::npos);
  EXPECT_NE(variants[2].first.find("merged"), std::string::npos);
  for (const auto& [label, app] : variants) {
    EXPECT_NO_THROW(app.validate()) << label;
  }
  // The merged variant replaces ridge+pyr with one record array.
  const auto& merged = variants[2].second;
  EXPECT_TRUE(merged.find_group("pyr_ridge").has_value());
  EXPECT_FALSE(merged.find_group("pyr").has_value());
  EXPECT_EQ(merged.group(*merged.find_group("pyr_ridge")).bitwidth, 10);
}

TEST(CaseStudy, RidgeAndPyrAreStronglyCoAccessed) {
  const auto& app = small_profile();
  const auto affinity = structuring::co_access_affinity(app, *app.find_group("ridge"),
                                                        *app.find_group("pyr"));
  // "the ridge array is almost always read and written together with ...
  // pyr" (Section 4.3).
  EXPECT_GT(affinity, 0.9);
}

TEST(CaseStudy, HierarchyVariantsMatchFigure3) {
  const auto variants = btpc_structuring_variants(small_profile());
  const auto hierarchy = btpc_hierarchy_variants(variants[2].second);
  ASSERT_EQ(hierarchy.size(), 4u);
  EXPECT_EQ(hierarchy[0].first, "no hierarchy");
  // Layer-0 variant has the 12-register ylocal equivalent.
  const auto& l0 = hierarchy[2].second;
  ASSERT_TRUE(l0.find_group("image_l0").has_value());
  EXPECT_EQ(l0.group(*l0.find_group("image_l0")).words, 12u);
  // Two-layer variant has both.
  const auto& both = hierarchy[3].second;
  EXPECT_TRUE(both.find_group("image_l0").has_value());
  EXPECT_TRUE(both.find_group("image_l1").has_value());
  EXPECT_EQ(both.group(*both.find_group("image_l1")).words, 5u * 1024u);
}

TEST(CaseStudy, BestVariantEvaluatesFeasible) {
  const auto best = btpc_best_variant(small_profile());
  EXPECT_NO_THROW(best.validate());
  const auto explorer = make_explorer();
  const auto eval = explorer.evaluate(best);
  EXPECT_TRUE(eval.feasible);
}

TEST(Evaluation, ToStringIsInformative) {
  const auto explorer = make_explorer();
  const auto eval = explorer.evaluate(small_profile());
  const auto text = eval.to_string();
  EXPECT_NE(text.find("on-chip area"), std::string::npos);
  EXPECT_NE(text.find("spare cycles"), std::string::npos);
}

}  // namespace
}  // namespace dtse::core
