// Tests for flow-graph balancing and storage cycle budget distribution.
#include <gtest/gtest.h>

#include <cstring>

#include "obs/telemetry.hpp"
#include "scbd/budget_distribution.hpp"
#include "scbd/flow_graph_balancing.hpp"
#include "support/check.hpp"
#include "workloads/workload.hpp"

namespace dtse::scbd {
namespace {

/// One loop body with `n` independent on-chip reads of distinct groups.
ir::Application independent_reads_app(int n, std::uint64_t iterations = 10) {
  ir::Application app("indep");
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = iterations;
  for (int i = 0; i < n; ++i) {
    const auto g = app.add_group({"g" + std::to_string(i), 64, 8});
    body.accesses.push_back({g, ir::AccessKind::kRead, 1.0});
  }
  app.add_body(body);
  return app;
}

TEST(FlowGraphBalancing, SerialBudgetHasNoConflicts) {
  const auto app = independent_reads_app(5);
  const auto body = app.body_ids().front();
  EXPECT_EQ(serial_body_budget(app, body), 5u);
  const auto result = balance_body(app, body, 5);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.conflicts.edge_count(), 0u);
  EXPECT_DOUBLE_EQ(result.conflict_cost, 0.0);
}

TEST(FlowGraphBalancing, TightBudgetCreatesConflicts) {
  const auto app = independent_reads_app(6);
  const auto body = app.body_ids().front();
  const auto result = balance_body(app, body, 3);
  EXPECT_TRUE(result.feasible);  // no dependencies, 3 cycles is schedulable
  EXPECT_GT(result.conflicts.edge_count(), 0u);
  EXPECT_GT(result.conflict_cost, 0.0);
  // All six units must still be scheduled.
  std::size_t placed = 0;
  for (const auto& slot : result.slots) placed += slot.size();
  EXPECT_EQ(placed, 6u);
}

TEST(FlowGraphBalancing, ConflictWeightsScaleWithIterations) {
  const auto app = independent_reads_app(4, 1000);
  const auto body = app.body_ids().front();
  const auto result = balance_body(app, body, 2);
  double total = 0.0;
  for (const auto& edge : result.conflicts.edges()) total += edge.weight;
  // 4 units in 2 slots -> 2 pairs per iteration, 1000 iterations.
  EXPECT_DOUBLE_EQ(total, 2000.0);
}

TEST(FlowGraphBalancing, MinBudgetIsCriticalPath) {
  ir::Application app("chain");
  const auto g = app.add_group({"g", 64, 8});
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  body.accesses.push_back({g, ir::AccessKind::kRead, 1.0});
  body.accesses.push_back({h, ir::AccessKind::kWrite, 1.0});
  body.deps = {{0, 1}};
  const auto id = app.add_body(body);
  EXPECT_EQ(min_body_budget(app, id, {}), 2u);
}

TEST(FlowGraphBalancing, OffchipLatencyLengthensCriticalPath) {
  ir::Application app("chain");
  const auto g = app.add_group({"g", 1 << 20, 8});  // off-chip (2 cycles)
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  body.accesses.push_back({g, ir::AccessKind::kRead, 1.0});
  body.accesses.push_back({h, ir::AccessKind::kWrite, 1.0});
  body.deps = {{0, 1}};
  const auto id = app.add_body(body);
  EXPECT_EQ(min_body_budget(app, id, {}), 3u);
}

TEST(FlowGraphBalancing, BelowMinimumBudgetIsInfeasible) {
  ir::Application app("chain");
  const auto g = app.add_group({"g", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  for (int i = 0; i < 3; ++i) body.accesses.push_back({g, ir::AccessKind::kRead, 1.0});
  body.deps = {};
  const auto id = app.add_body(body);
  // 3 reads of one group into 1 cycle: schedulable but self-conflicting.
  const auto result = balance_body(app, id, 1);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.conflicts.has_self_conflict(g));
}

TEST(FlowGraphBalancing, SchedulerAvoidsSelfConflictsWhenPossible) {
  ir::Application app("self");
  const auto g = app.add_group({"g", 64, 8});
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  body.accesses.push_back({g, ir::AccessKind::kRead, 2.0});
  body.accesses.push_back({h, ir::AccessKind::kRead, 2.0});
  const auto id = app.add_body(body);
  // 4 units in 2 cycles: pairing g with h twice avoids any self-conflict.
  const auto result = balance_body(app, id, 2);
  EXPECT_FALSE(result.conflicts.has_self_conflict(g));
  EXPECT_FALSE(result.conflicts.has_self_conflict(h));
  EXPECT_TRUE(result.conflicts.conflicts(g, h));
}

TEST(FlowGraphBalancing, FractionalAccessesCarryTheirWeight) {
  ir::Application app("frac");
  const auto g = app.add_group({"g", 64, 8});
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 100;
  body.accesses.push_back({g, ir::AccessKind::kRead, 0.5});
  body.accesses.push_back({h, ir::AccessKind::kRead, 1.0});
  const auto id = app.add_body(body);
  const auto result = balance_body(app, id, 1);
  EXPECT_DOUBLE_EQ(result.conflicts.conflict_weight(g, h), 0.5 * 100);
}

TEST(FlowGraphBalancing, HugeAccessCountIsRejected) {
  ir::Application app("huge");
  const auto g = app.add_group({"g", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1;
  body.accesses.push_back({g, ir::AccessKind::kRead, 100.0});
  const auto id = app.add_body(body);
  EXPECT_THROW((void)balance_body(app, id, 100), support::ContractError);
}

// --- budget distribution -----------------------------------------------------

ir::Application two_body_app() {
  ir::Application app("two");
  const auto g = app.add_group({"g", 64, 8});
  const auto h = app.add_group({"h", 64, 8});
  ir::LoopBody hot;
  hot.name = "hot";
  hot.iterations = 1000;
  for (int i = 0; i < 4; ++i) {
    hot.accesses.push_back({i % 2 ? g : h, ir::AccessKind::kRead, 1.0});
  }
  app.add_body(hot);
  ir::LoopBody cold;
  cold.name = "cold";
  cold.iterations = 10;
  for (int i = 0; i < 4; ++i) {
    cold.accesses.push_back({i % 2 ? g : h, ir::AccessKind::kRead, 1.0});
  }
  app.add_body(cold);
  return app;
}

TEST(BudgetDistribution, GenerousBudgetIsConflictFree) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 100'000;
  const auto result = distribute_budget(app, options);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.conflict_cost, 0.0);
  EXPECT_LE(result.used_cycles, options.global_budget_cycles);
  EXPECT_EQ(result.used_cycles, result.conflict_free_cycles);
}

TEST(BudgetDistribution, TightBudgetCostsConflicts) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 2 * 1000 + 2 * 10;  // half the serial need
  const auto result = distribute_budget(app, options);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.conflict_cost, 0.0);
  EXPECT_LE(result.used_cycles, options.global_budget_cycles);
}

TEST(BudgetDistribution, InfeasibleBelowCriticalPath) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 1;
  const auto result = distribute_budget(app, options);
  EXPECT_FALSE(result.feasible);
  EXPECT_GT(result.minimum_cycles, options.global_budget_cycles);
}

TEST(BudgetDistribution, ExtraCyclesGoToHotBodyFirst) {
  // A cycle given to the hot body buys 1000 conflict reductions; the greedy
  // knapsack must prefer it over the cold body when the budget is scarce.
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 3 * 1000 + 2 * 10 + 5;
  const auto result = distribute_budget(app, options);
  ASSERT_EQ(result.bodies.size(), 2u);
  EXPECT_GT(result.bodies[0].budget_cycles, result.bodies[1].budget_cycles);
}

TEST(BudgetDistribution, MonotoneConflictCostInBudget) {
  const auto app = two_body_app();
  double previous_cost = 1e18;
  for (const std::uint64_t budget : {2020u, 2500u, 3030u, 4040u, 100000u}) {
    ScbdOptions options;
    options.global_budget_cycles = budget;
    const auto result = distribute_budget(app, options);
    EXPECT_LE(result.conflict_cost, previous_cost + 1e-9)
        << "budget " << budget << " increased the conflict cost";
    previous_cost = result.conflict_cost;
  }
}

TEST(BudgetDistribution, SpareCyclesComputation) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = 100'000;
  const auto result = distribute_budget(app, options);
  EXPECT_EQ(result.spare_cycles(200'000), 200'000 - result.used_cycles);
  EXPECT_EQ(result.spare_cycles(0), 0u);
}

TEST(BudgetDistribution, ReportMentionsBodies) {
  const auto app = two_body_app();
  const auto result = distribute_budget(app, {});
  const auto text = result.to_string();
  EXPECT_NE(text.find("hot"), std::string::npos);
  EXPECT_NE(text.find("cold"), std::string::npos);
}

class BudgetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetSweep, UsedNeverExceedsBudgetWhenFeasible) {
  const auto app = two_body_app();
  ScbdOptions options;
  options.global_budget_cycles = GetParam();
  const auto result = distribute_budget(app, options);
  if (result.feasible) {
    EXPECT_LE(result.used_cycles, GetParam());
    EXPECT_GE(result.used_cycles, result.minimum_cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep,
                         ::testing::Values(1500, 2020, 2100, 2500, 3000, 4040, 9999,
                                           100000));

// --- one scheduling context per body ------------------------------------------

/// The tuned default models of every registered workload.
const std::vector<ir::Application>& default_models() {
  static const auto models = [] {
    std::vector<ir::Application> apps;
    for (const auto name : workloads::workload_names()) {
      const auto* workload = workloads::find_workload(name);
      apps.push_back(workload->tuned_variant(workload->profile({})));
    }
    return apps;
  }();
  return models;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void expect_same_schedule(const BalanceResult& a, const BalanceResult& b,
                          const std::string& where) {
  EXPECT_EQ(a.budget_cycles, b.budget_cycles) << where;
  EXPECT_EQ(a.feasible, b.feasible) << where;
  EXPECT_EQ(a.slots, b.slots) << where;
  EXPECT_EQ(bits_of(a.conflict_cost), bits_of(b.conflict_cost)) << where;
  const auto edges_a = a.conflicts.edges();
  const auto edges_b = b.conflicts.edges();
  ASSERT_EQ(edges_a.size(), edges_b.size()) << where;
  for (std::size_t e = 0; e < edges_a.size(); ++e) {
    EXPECT_EQ(edges_a[e].a, edges_b[e].a) << where;
    EXPECT_EQ(edges_a[e].b, edges_b[e].b) << where;
    EXPECT_EQ(bits_of(edges_a[e].weight), bits_of(edges_b[e].weight)) << where;
  }
}

// The schedules `distribute_budget` returns come from its per-body contexts;
// each must equal a standalone `balance_body` at the chosen budget.
TEST(BodyScheduler, DistributedSchedulesMatchStandaloneBalancing) {
  for (const auto& app : default_models()) {
    for (const std::uint64_t budget : {20'000'000u, 15'000'000u, 11'600'000u}) {
      ScbdOptions options;
      options.global_budget_cycles = budget;
      const auto result = distribute_budget(app, options);
      for (const auto& body : result.bodies) {
        expect_same_schedule(body.schedule,
                             balance_body(app, body.body, body.budget_cycles,
                                          options.latency, options.penalties),
                             app.name() + "/" + body.name + " at " + std::to_string(budget));
      }
    }
  }
}

// Cost-curve steps skip the conflict graph; their cost must still be the full
// path's, bit for bit, at every budget from the minimum to the serial one.
TEST(BodyScheduler, CurveCostMatchesFullBalancingAtEveryBudget) {
  for (const auto& app : default_models()) {
    for (const auto id : app.body_ids()) {
      const BodyScheduler scheduler(app, id);
      EXPECT_EQ(scheduler.min_budget(), min_body_budget(app, id, {}));
      EXPECT_EQ(scheduler.serial_budget(), serial_body_budget(app, id));
      const auto lo = std::max<std::uint64_t>(scheduler.min_budget(), 1);
      const auto hi = std::max(scheduler.serial_budget(), lo);
      for (std::uint64_t b = lo; b <= hi; ++b) {
        const auto full = scheduler.balance(b);
        EXPECT_EQ(bits_of(scheduler.conflict_cost(b)), bits_of(full.conflict_cost))
            << app.name() << "/" << app.body(id).name << " at " << b;
        expect_same_schedule(full, balance_body(app, id, b),
                             app.name() + "/" + app.body(id).name);
      }
    }
  }
}

TEST(BodyScheduler, DistributionBuildsOneContextPerBody) {
#ifdef DTSE_OBS_OFF
  GTEST_SKIP() << "counters compile out";
#endif
  auto& counter = obs::TelemetryRegistry::global().counter("scbd.body_schedulers");
  for (const auto& app : default_models()) {
    const auto before = counter.value();
    (void)distribute_budget(app, {});
    EXPECT_EQ(counter.value() - before, app.body_ids().size()) << app.name();
  }
}

}  // namespace
}  // namespace dtse::scbd
