// End-to-end integration tests: the paper's qualitative claims must hold on
// a freshly profiled demonstrator, i.e. the *shape* of Tables 1-4.
#include <gtest/gtest.h>

#include "core/explorer.hpp"
#include "hierarchy/hierarchy.hpp"
#include "workloads/btpc_workload.hpp"

namespace dtse::core {
namespace {

using workloads::btpc_best_variant;
using workloads::btpc_hierarchy_variants;
using workloads::btpc_structuring_variants;

struct Pipeline {
  ir::Application profiled;
  Explorer explorer{memlib::MemoryLibrary{}};
  ExplorerOptions options;

  Pipeline() { profiled = workloads::BtpcWorkload{}.profile({.profile_size = 256}); }
};

const Pipeline& pipeline() {
  static const Pipeline p;
  return p;
}

TEST(PaperShape, Table1MergingReducesOffchipPower) {
  const auto& p = pipeline();
  const auto variants = p.explorer.explore_variants(
      btpc_structuring_variants(p.profiled), p.options);
  ASSERT_EQ(variants.size(), 3u);
  const auto& none = variants[0].eval.summary;
  const auto& merged = variants[2].eval.summary;
  // "The effect of merging ... is pretty significant" — off-chip power drops.
  EXPECT_LT(merged.offchip_power_mw, 0.95 * none.offchip_power_mw);
}

TEST(PaperShape, Table1CompactionEffectIsSmall) {
  const auto& p = pipeline();
  const auto variants = p.explorer.explore_variants(
      btpc_structuring_variants(p.profiled), p.options);
  const auto& none = variants[0].eval.summary;
  const auto& compacted = variants[1].eval.summary;
  // "The effect of compacting the ridge array is rather small."
  EXPECT_NEAR(compacted.offchip_power_mw, none.offchip_power_mw,
              0.1 * none.offchip_power_mw);
}

TEST(PaperShape, Table2HierarchyCutsOffchipPower) {
  const auto& p = pipeline();
  const auto variants = p.explorer.explore_variants(
      btpc_structuring_variants(p.profiled), p.options);
  const auto hierarchy = p.explorer.explore_variants(
      btpc_hierarchy_variants(variants[2].app), p.options);
  ASSERT_EQ(hierarchy.size(), 4u);
  const auto& none = hierarchy[0].eval.summary;
  const auto& layer1 = hierarchy[1].eval.summary;
  const auto& layer0 = hierarchy[2].eval.summary;
  const auto& both = hierarchy[3].eval.summary;

  // Every hierarchy option reduces off-chip power (Table 2).
  EXPECT_LT(layer1.offchip_power_mw, none.offchip_power_mw);
  EXPECT_LT(layer0.offchip_power_mw, none.offchip_power_mw);
  EXPECT_LT(both.offchip_power_mw, none.offchip_power_mw);
  // ... at the price of on-chip area (copies + layer memories).
  EXPECT_GT(layer1.onchip_area_mm2, none.onchip_area_mm2);
  EXPECT_GT(layer0.onchip_area_mm2, none.onchip_area_mm2);
  // The big 5K layer costs much more on-chip than the 12-register one.
  EXPECT_GT(layer1.onchip_area_mm2, layer0.onchip_area_mm2);
  // "There is no improvement in power by also having the hierarchy layer 1,
  // because the extra copies between the layers nullify the gain": the
  // 2-layer option does not beat layer 0 alone in total power.
  EXPECT_GE(both.onchip_power_mw + both.offchip_power_mw,
            layer0.onchip_power_mw + layer0.offchip_power_mw - 1e-6);
}

TEST(PaperShape, Table2Layer0WinsOnBalance) {
  const auto& p = pipeline();
  const auto variants = p.explorer.explore_variants(
      btpc_structuring_variants(p.profiled), p.options);
  const auto hierarchy = p.explorer.explore_variants(
      btpc_hierarchy_variants(variants[2].app), p.options);
  memlib::CostWeights weights;
  double best_cost = 1e300;
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < hierarchy.size(); ++i) {
    const double cost = weights.scalarize(hierarchy[i].eval.summary);
    if (cost < best_cost) {
      best_cost = cost;
      best_index = i;
    }
  }
  // "the one with layer 0 only is the best one" (index 2 in Figure 3 order).
  EXPECT_EQ(best_index, 2u);
}

TEST(PaperShape, Table3TighteningIsFreeAtFirstThenCosts) {
  const auto& p = pipeline();
  const auto best = btpc_best_variant(p.profiled);
  const std::uint64_t full = p.options.real_time_budget_cycles;
  const auto points = p.explorer.explore_cycle_budgets(
      best, {full, full * 85 / 100, full * 55 / 100}, p.options);
  ASSERT_EQ(points.size(), 3u);
  memlib::CostWeights weights;
  const double cost_full = weights.scalarize(points[0].eval.summary);
  const double cost_mild = weights.scalarize(points[1].eval.summary);
  const double cost_tight = weights.scalarize(points[2].eval.summary);
  // Mild tightening is (almost) free: "2 093 184 extra cycles ... can be
  // spared ... without influencing the cost of the memory organization much".
  EXPECT_LT(cost_mild, cost_full * 1.10);
  // Severe tightening costs real money.
  EXPECT_GT(cost_tight, cost_full * 1.02);
  // And buys real data-path cycles.
  EXPECT_GT(points[2].spare_cycles, points[0].spare_cycles + full / 4);
}

TEST(PaperShape, Table4PowerFallsWithMoreMemories) {
  const auto& p = pipeline();
  const auto best = btpc_best_variant(p.profiled);
  const auto sweep = p.explorer.explore_allocation_counts(best, {5, 8, 10, 14}, p.options);
  ASSERT_EQ(sweep.size(), 4u);
  for (const auto& v : sweep) ASSERT_TRUE(v.eval.feasible) << v.label;
  // On-chip power decreases monotonically with the memory count (Table 4).
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].eval.summary.onchip_power_mw,
              sweep[i - 1].eval.summary.onchip_power_mw + 0.5)
        << sweep[i].label;
  }
  // Off-chip power is allocation-independent.
  EXPECT_NEAR(sweep[0].eval.summary.offchip_power_mw,
              sweep[3].eval.summary.offchip_power_mw, 1e-6);
}

TEST(PaperShape, Table4AreaIsNotMonotone) {
  // "When allocating a few extra memories, not only power consumption but
  // also the area decreases ... still more memories ... push the area cost
  // upwards again": the area curve over N has an interior minimum.
  const auto& p = pipeline();
  const auto best = btpc_best_variant(p.profiled);
  const auto sweep =
      p.explorer.explore_allocation_counts(best, {4, 5, 8, 10, 14}, p.options);
  std::vector<double> areas;
  for (const auto& v : sweep) {
    if (v.eval.feasible) areas.push_back(v.eval.summary.onchip_area_mm2);
  }
  ASSERT_GE(areas.size(), 3u);
  const auto min_it = std::min_element(areas.begin(), areas.end());
  EXPECT_NE(min_it, areas.begin());
  EXPECT_NE(min_it, areas.end() - 1);
}

TEST(PaperShape, ReuseCandidateIsTheImageArray) {
  const auto& p = pipeline();
  const auto variants = btpc_structuring_variants(p.profiled);
  const auto candidates = hierarchy::rank_reuse_candidates(variants[2].second);
  ASSERT_FALSE(candidates.empty());
  // "the results of the previous step indicated one particular array as
  // being critical for power consumption: the image array".
  EXPECT_EQ(variants[2].second.group(candidates[0].group).name, "image");
}

TEST(PaperShape, MergedVariantDropsTotalOffchipAccesses) {
  const auto& p = pipeline();
  const auto variants = btpc_structuring_variants(p.profiled);
  const auto& none = variants[0].second;
  const auto& merged = variants[2].second;
  const double before = none.totals(*none.find_group("pyr")).total() +
                        none.totals(*none.find_group("ridge")).total();
  const double after = merged.totals(*merged.find_group("pyr_ridge")).total();
  EXPECT_LT(after, 0.7 * before);
}

}  // namespace
}  // namespace dtse::core
