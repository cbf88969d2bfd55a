// Tests for flow-graph balancing and storage cycle budget distribution.
#include <gtest/gtest.h>

#include <cstring>

#include "core/explorer.hpp"
#include "obs/telemetry.hpp"
#include "oracles/eager_scbd.hpp"
#include "scbd/budget_distribution.hpp"
#include "scbd/flow_graph_balancing.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
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
  const BodyScheduler scheduler(app, body);
  EXPECT_EQ(scheduler.serial_budget(), 5u);
  const auto result = scheduler.balance(5);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.conflicts.edge_count(), 0u);
  EXPECT_DOUBLE_EQ(result.conflict_cost, 0.0);
}

TEST(FlowGraphBalancing, TightBudgetCreatesConflicts) {
  const auto app = independent_reads_app(6);
  const auto body = app.body_ids().front();
  const auto result = BodyScheduler(app, body).balance(3);
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
  const auto result = BodyScheduler(app, body).balance(2);
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
  EXPECT_EQ(BodyScheduler(app, id).min_budget(), 2u);
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
  const BodyScheduler scheduler(app, id);
  EXPECT_EQ(scheduler.min_budget(), 3u);
  // Two units, but the chain needs three cycles: the conflict-free budget
  // is the critical path, not the unit count.
  EXPECT_EQ(scheduler.serial_budget(), 3u);
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
  const auto result = BodyScheduler(app, id).balance(1);
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
  const auto result = BodyScheduler(app, id).balance(2);
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
  const auto result = BodyScheduler(app, id).balance(1);
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
  EXPECT_THROW((void)BodyScheduler(app, id), support::ContractError);
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
// each must equal a fresh `BodyScheduler`'s balance at the chosen budget.
TEST(BodyScheduler, DistributedSchedulesMatchStandaloneBalancing) {
  for (const auto& app : default_models()) {
    for (const std::uint64_t budget : {20'000'000u, 15'000'000u, 11'600'000u}) {
      ScbdOptions options;
      options.global_budget_cycles = budget;
      const auto result = distribute_budget(app, options);
      for (const auto& body : result.bodies) {
        expect_same_schedule(body.schedule,
                             BodyScheduler(app, body.body).balance(body.budget_cycles),
                             app.name() + "/" + body.name + " at " + std::to_string(budget));
      }
    }
  }
}

// Cost-curve steps skip the conflict graph; their cost must still be the full
// path's, bit for bit, at every budget from the minimum to the serial one.
// One scheduler balances every budget, so each schedule must also equal a
// fresh scheduler's.
TEST(BodyScheduler, CurveCostMatchesFullBalancingAtEveryBudget) {
  for (const auto& app : default_models()) {
    for (const auto id : app.body_ids()) {
      const BodyScheduler scheduler(app, id);
      EXPECT_GE(scheduler.serial_budget(), scheduler.min_budget());
      const auto lo = std::max<std::uint64_t>(scheduler.min_budget(), 1);
      const auto hi = std::max(scheduler.serial_budget(), lo);
      for (std::uint64_t b = lo; b <= hi; ++b) {
        const auto full = scheduler.balance(b);
        EXPECT_EQ(bits_of(scheduler.conflict_cost(b)), bits_of(full.conflict_cost))
            << app.name() << "/" << app.body(id).name << " at " << b;
        expect_same_schedule(full, BodyScheduler(app, id).balance(b),
                             app.name() + "/" + app.body(id).name);
      }
    }
  }
}

TEST(BodyScheduler, DistributionBuildsOneContextPerBody) {
  auto& counter = obs::TelemetryRegistry::global().counter("scbd.body_schedulers");
  for (const auto& app : default_models()) {
    const auto before = counter.value();
    (void)distribute_budget(app, {});
    EXPECT_EQ(counter.value() - before, app.body_ids().size()) << app.name();
  }
}

// --- lazy curves against the eager reference --------------------------------

/// The tuned default models merged into one shared model.
const ir::Application& shared_model() {
  static const auto shared = [] {
    std::vector<std::pair<std::string, const ir::Application*>> apps;
    const auto names = workloads::workload_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      apps.emplace_back(std::string(names[i]), &default_models()[i]);
    }
    return core::merge_applications(apps, "shared");
  }();
  return shared;
}

void expect_same_distribution(const ScbdResult& lazy, const ScbdResult& eager,
                              const std::string& where) {
  EXPECT_EQ(lazy.feasible, eager.feasible) << where;
  EXPECT_EQ(lazy.used_cycles, eager.used_cycles) << where;
  EXPECT_EQ(lazy.minimum_cycles, eager.minimum_cycles) << where;
  EXPECT_EQ(lazy.conflict_free_cycles, eager.conflict_free_cycles) << where;
  EXPECT_EQ(bits_of(lazy.conflict_cost), bits_of(eager.conflict_cost)) << where;
  ASSERT_EQ(lazy.bodies.size(), eager.bodies.size()) << where;
  for (std::size_t i = 0; i < lazy.bodies.size(); ++i) {
    const auto& a = lazy.bodies[i];
    const auto& b = eager.bodies[i];
    const auto body = where + "/" + a.name;
    EXPECT_EQ(a.body, b.body) << body;
    EXPECT_EQ(a.min_cycles, b.min_cycles) << body;
    EXPECT_EQ(a.serial_cycles, b.serial_cycles) << body;
    EXPECT_EQ(a.budget_cycles, b.budget_cycles) << body;
    expect_same_schedule(a.schedule, b.schedule, body);
  }
  const auto edges_a = lazy.conflicts.edges();
  const auto edges_b = eager.conflicts.edges();
  ASSERT_EQ(edges_a.size(), edges_b.size()) << where;
  for (std::size_t e = 0; e < edges_a.size(); ++e) {
    EXPECT_EQ(edges_a[e].a, edges_b[e].a) << where;
    EXPECT_EQ(edges_a[e].b, edges_b[e].b) << where;
    EXPECT_EQ(bits_of(edges_a[e].weight), bits_of(edges_b[e].weight)) << where;
  }
}

/// Sum over bodies of the cost-curve lengths an eager distribution schedules.
std::uint64_t curve_points(const ScbdResult& result) {
  std::uint64_t points = 0;
  for (const auto& body : result.bodies) points += body.serial_cycles - body.min_cycles + 1;
  return points;
}

// Budgets of a 20 Mcycle frame from generous to below every model's minimum.
constexpr std::uint64_t kOracleBudgets[] = {20'000'000, 15'000'000, 11'600'000,
                                            8'000'000,  4'000'000,  1'000'000, 1};

TEST(BudgetDistribution, MatchesEagerReferenceOnDefaultModels) {
  std::vector<const ir::Application*> apps;
  for (const auto& app : default_models()) apps.push_back(&app);
  apps.push_back(&shared_model());
  for (const auto* app : apps) {
    bool infeasible_seen = false;
    for (const auto budget : kOracleBudgets) {
      ScbdOptions options;
      options.global_budget_cycles = budget;
      const auto lazy = distribute_budget(*app, options);
      infeasible_seen |= !lazy.feasible;
      expect_same_distribution(lazy, oracle::eager_distribute_budget(*app, options),
                               app->name() + " at " + std::to_string(budget));
    }
    EXPECT_TRUE(infeasible_seen) << app->name();
  }
}

TEST(BodyScheduler, SchedulesMatchEagerReferenceAtEveryBudget) {
  for (const auto& app : default_models()) {
    for (const auto id : app.body_ids()) {
      const BodyScheduler scheduler(app, id);
      const oracle::EagerBodyScheduler eager(app, id);
      ASSERT_EQ(scheduler.min_budget(), eager.min_budget());
      ASSERT_EQ(scheduler.serial_budget(), eager.serial_budget());
      const auto hi = std::max<std::uint64_t>(scheduler.serial_budget(), 1);
      for (std::uint64_t b = 0; b <= hi + 1; ++b) {
        expect_same_schedule(scheduler.balance(b), eager.balance(b),
                             app.name() + "/" + app.body(id).name + " at " +
                                 std::to_string(b));
      }
    }
  }
}

// The placement order is fixed at construction; the reference re-sorts by
// mobility at every budget, and the two must agree wherever they schedule.
TEST(BodyScheduler, HoistedOrderEqualsPerBudgetMobilitySort) {
  std::vector<const ir::Application*> apps;
  for (const auto& app : default_models()) apps.push_back(&app);
  apps.push_back(&shared_model());
  for (const auto* app : apps) {
    for (const auto id : app->body_ids()) {
      const BodyScheduler scheduler(*app, id);
      const oracle::EagerBodyScheduler eager(*app, id);
      for (std::uint64_t b = 0; b <= 2 * scheduler.serial_budget() + 1; ++b) {
        EXPECT_EQ(scheduler.placement_order(), eager.mobility_order(b))
            << app->name() << "/" << app->body(id).name << " at " << b;
      }
    }
  }
}

/// A body whose conflict-cost curve rises: 2840 1616 828 70 274 112 250 240
/// 80 0 at budgets 3..12.  The greedy climbs to 6 and stops there, because
/// the step to 7 costs conflicts, although later budgets are cheaper still.
ir::Application rising_curve_app() {
  ir::Application app("rising");
  std::vector<ir::BasicGroupId> g;
  for (const std::uint64_t words : {64u, 64u, 64u, 1u << 20, 1u << 20}) {
    g.push_back(app.add_group({"g" + std::to_string(g.size()), words, 8}));
  }
  ir::LoopBody body;
  body.name = "rising";
  body.iterations = 10;
  body.accesses = {{g[4], ir::AccessKind::kRead, 3.0},
                   {g[4], ir::AccessKind::kRead, 2.0},
                   {g[1], ir::AccessKind::kRead, 2.0},
                   {g[0], ir::AccessKind::kRead, 2.0},
                   {g[2], ir::AccessKind::kRead, 3.0}};
  body.deps = {{0, 3}, {2, 3}, {2, 4}};
  app.add_body(body);
  return app;
}

TEST(BudgetDistribution, LazyGreedyStopsWhereTheCurveRises) {
  const auto app = rising_curve_app();
  const oracle::EagerBodyScheduler eager(app, app.body_ids().front());
  ASSERT_EQ(eager.min_budget(), 3u);
  ASSERT_EQ(eager.serial_budget(), 12u);
  ASSERT_GT(eager.conflict_cost(7), eager.conflict_cost(6));  // the rise
  ASSERT_LT(eager.conflict_cost(12), eager.conflict_cost(6));

  auto& schedules = obs::TelemetryRegistry::global().counter("scbd.schedules");
  ScbdOptions options;
  options.global_budget_cycles = 1'000'000;
  const auto before = schedules.value();
  const auto lazy = distribute_budget(app, options);
  // Budgets 3..7 are read (each step compares a budget with the next), plus
  // the final schedule: 6 of the curve's 10 points.
  EXPECT_EQ(schedules.value() - before, 6u);
  ASSERT_EQ(lazy.bodies.size(), 1u);
  EXPECT_EQ(lazy.bodies[0].budget_cycles, 6u);
  // And at every global budget the distribution is the eager one.
  for (std::uint64_t budget = 20; budget <= 130; budget += 5) {
    options.global_budget_cycles = budget;
    expect_same_distribution(distribute_budget(app, options),
                             oracle::eager_distribute_budget(app, options),
                             "rising at " + std::to_string(budget));
  }
}

/// Random bodies over on- and off-chip groups with fractional and repeated
/// accesses and random forward dependencies; one to three bodies per app.
ir::Application random_app(std::uint64_t seed) {
  support::Rng rng(seed);
  ir::Application app("random" + std::to_string(seed));
  std::vector<ir::BasicGroupId> groups;
  const auto group_count = 2 + rng.below(4);
  for (std::uint64_t i = 0; i < group_count; ++i) {
    const std::uint64_t words = rng.below(3) == 0 ? 1u << 20 : 64u;
    groups.push_back(app.add_group({"g" + std::to_string(i), words, 8}));
  }
  const double counts[] = {0.5, 1.0, 1.5, 2.0, 3.0};
  const auto bodies = 1 + rng.below(3);
  for (std::uint64_t b = 0; b < bodies; ++b) {
    ir::LoopBody body;
    body.name = "b" + std::to_string(b);
    body.iterations = 1 + rng.below(1000);
    const auto accesses = 2 + rng.below(7);
    for (std::uint64_t a = 0; a < accesses; ++a) {
      body.accesses.push_back(
          {groups[rng.below(group_count)], ir::AccessKind::kRead, counts[rng.below(5)]});
    }
    for (std::size_t from = 0; from < accesses; ++from) {
      for (std::size_t to = from + 1; to < accesses; ++to) {
        if (rng.below(4) == 0) body.deps.push_back({from, to});
      }
    }
    app.add_body(body);
  }
  return app;
}

TEST(BudgetDistribution, MatchesEagerReferenceOnRandomBodies) {
  std::size_t rising_curves = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    const auto app = random_app(seed);
    for (const auto id : app.body_ids()) {
      const oracle::EagerBodyScheduler eager(app, id);
      const auto curve = oracle::eager_curve(eager);
      for (std::size_t i = 0; i + 1 < curve.cost.size(); ++i) {
        if (curve.cost[i + 1] > curve.cost[i]) {
          ++rising_curves;
          break;
        }
      }
    }
    const auto span = distribute_budget(app, {});
    const auto minimum = span.minimum_cycles;
    const auto free_cycles = span.conflict_free_cycles;
    for (const auto budget : {minimum - 1, minimum, (minimum + free_cycles) / 2,
                              minimum + (free_cycles - minimum) / 5, free_cycles}) {
      if (budget == 0) continue;
      ScbdOptions options;
      options.global_budget_cycles = budget;
      expect_same_distribution(distribute_budget(app, options),
                               oracle::eager_distribute_budget(app, options),
                               app.name() + " at " + std::to_string(budget));
    }
  }
  EXPECT_GT(rising_curves, 0u);  // the sample exercises non-monotone curves
}

TEST(BudgetDistribution, SharedModelSchedulesFewerBudgetsThanItsCurves) {
  // At 58 % of the 20 Mcycle frame the shared model (default profile size)
  // is below its critical-path minimum, so only the final schedules run; at
  // 85 % the greedy climbs, but reads only a fraction of the 254 points.
  auto& schedules = obs::TelemetryRegistry::global().counter("scbd.schedules");
  for (const std::uint64_t permille : {580u, 850u}) {
    ScbdOptions options;
    options.global_budget_cycles = 20'000'000u * permille / 1000;
    const auto before = schedules.value();
    const auto result = distribute_budget(shared_model(), options);
    const auto ran = schedules.value() - before;
    EXPECT_EQ(result.feasible, permille == 850u);
    EXPECT_GE(ran, result.bodies.size()) << permille;  // at least the final schedules
    EXPECT_LT(ran, curve_points(result)) << permille;
    if (result.feasible) {
      EXPECT_GT(ran, result.bodies.size()) << permille;
    }
  }
}

// The CLI sweeps call `evaluate` from parallel workers: distributions of one
// app, and balancing on one shared scheduler, must not share scratch.
TEST(BudgetDistribution, ConcurrentDistributionsMatchSerial) {
  const auto& app = shared_model();
  const std::vector<std::uint64_t> budgets = {20'000'000, 15'000'000, 11'600'000,
                                              20'000'000, 15'000'000, 11'600'000,
                                              8'000'000,  1};
  std::vector<ScbdResult> serial;
  for (const auto budget : budgets) {
    ScbdOptions options;
    options.global_budget_cycles = budget;
    serial.push_back(distribute_budget(app, options));
  }
  std::vector<ScbdResult> parallel(budgets.size());
  support::parallel_for(budgets.size(), 4, [&](std::size_t i) {
    ScbdOptions options;
    options.global_budget_cycles = budgets[i];
    parallel[i] = distribute_budget(app, options);
  });
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    expect_same_distribution(parallel[i], serial[i], "budget " + std::to_string(budgets[i]));
  }

  const auto id = app.body_ids().front();
  const BodyScheduler scheduler(app, id);
  const auto hi = scheduler.serial_budget() + 1;
  std::vector<BalanceResult> shared(hi + 1);
  support::parallel_for(shared.size(), 4,
                        [&](std::size_t b) { shared[b] = scheduler.balance(b); });
  for (std::uint64_t b = 0; b <= hi; ++b) {
    expect_same_schedule(shared[b], scheduler.balance(b), "shared scheduler at " +
                                                              std::to_string(b));
  }
}

}  // namespace
}  // namespace dtse::scbd
