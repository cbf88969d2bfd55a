// Tests for the signal-to-memory assignment problem, its solvers, and the
// allocation driver.
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <limits>
#include <string_view>
#include <utility>

#include "alloc/allocator.hpp"
#include "alloc/assignment_problem.hpp"
#include "alloc/solvers.hpp"
#include "entropy/entropy_coder.hpp"
#include "oracles/loose_branch_and_bound.hpp"
#include "scbd/budget_distribution.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

namespace dtse::alloc {
namespace {

/// Size and traffic of one fixture group, per loop iteration.
struct GroupFigures {
  std::uint64_t words = 0;
  int width_bits = 0;
  double reads = 0.0;
  double writes = 0.0;
};

std::vector<GroupFigures> graded_figures(int n_groups, double reads_per_iter) {
  std::vector<GroupFigures> figures;
  for (int i = 0; i < n_groups; ++i) {
    figures.push_back({256u << (i % 3), 4 + 4 * (i % 4), reads_per_iter, 0.0});
  }
  return figures;
}

struct Fixture {
  ir::Application app{"fix"};
  std::vector<ir::BasicGroupId> groups;
  graph::ConflictGraph conflicts;
  memlib::MemoryLibrary library;
  std::uint64_t frame_cycles = 20'000'000;

  explicit Fixture(int n_groups, double reads_per_iter = 1.0)
      : Fixture(graded_figures(n_groups, reads_per_iter)) {}

  /// Groups g0, g1, ... with the given figures, accessed in one loop body.
  explicit Fixture(const std::vector<GroupFigures>& figures) {
    ir::LoopBody body;
    body.name = "loop";
    body.iterations = 100'000;
    for (const auto& f : figures) {
      std::string name = "g";
      name += std::to_string(groups.size());
      const auto id = app.add_group({name, f.words, f.width_bits});
      groups.push_back(id);
      if (f.reads > 0.0) body.accesses.push_back({id, ir::AccessKind::kRead, f.reads});
      if (f.writes > 0.0) {
        body.accesses.push_back({id, ir::AccessKind::kWrite, f.writes});
      }
    }
    app.add_body(body);
  }

  [[nodiscard]] AssignmentProblem problem() const {
    return AssignmentProblem(app, groups, conflicts, library, frame_cycles);
  }
};

TEST(AssignmentProblem, SingleGroupMemory) {
  Fixture fix(3);
  const auto problem = fix.problem();
  const auto mem = problem.build_memory({0});
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(mem->groups.size(), 1u);
  EXPECT_EQ(mem->words, fix.app.group(fix.groups[0]).words);
  EXPECT_EQ(mem->ports, memlib::PortCount::kSingle);
  EXPECT_GT(mem->cost.area_mm2, 0.0);
  EXPECT_GT(mem->power_mw, 0.0);
}

TEST(AssignmentProblem, WidthIsMaxOfMembers) {
  Fixture fix(3);  // widths 4, 8, 12
  const auto problem = fix.problem();
  const auto mem = problem.build_memory({0, 1, 2});
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(mem->width_bits, 12);
  EXPECT_EQ(mem->words, fix.app.group(fix.groups[0]).words +
                            fix.app.group(fix.groups[1]).words +
                            fix.app.group(fix.groups[2]).words);
}

TEST(AssignmentProblem, BitwidthWasteCostsArea) {
  // Same groups, one memory vs split by width: the split avoids storing
  // 4-bit words in a 12-bit memory.
  Fixture fix(3);
  const auto problem = fix.problem();
  const auto together = problem.build_memory({0, 1, 2});
  const auto narrow = problem.build_memory({0});
  const auto mid = problem.build_memory({1});
  const auto wide = problem.build_memory({2});
  ASSERT_TRUE(together && narrow && mid && wide);
  const double cells_together = together->cost.area_mm2;
  const double cells_split =
      narrow->cost.area_mm2 + mid->cost.area_mm2 + wide->cost.area_mm2;
  // Split pays 3x periphery but saves waste; at these sizes the waste is
  // smaller, so together must be cheaper in area but pricier than the sum
  // of the *cell* contributions alone.  Sanity-check both directions exist.
  EXPECT_GT(cells_together, wide->cost.area_mm2);
  EXPECT_GT(cells_split, cells_together - 1e9);  // well-formed numbers
}

TEST(AssignmentProblem, ConflictingPairForcesDualPort) {
  Fixture fix(2);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[1], 10.0);
  const auto problem = fix.problem();
  EXPECT_TRUE(problem.conflicting(0, 1));
  const auto mem = problem.build_memory({0, 1});
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(mem->ports, memlib::PortCount::kDual);
}

TEST(AssignmentProblem, SelfConflictForcesDualPort) {
  Fixture fix(1);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[0], 5.0);
  const auto problem = fix.problem();
  EXPECT_TRUE(problem.self_conflicting(0));
  const auto mem = problem.build_memory({0});
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(mem->ports, memlib::PortCount::kDual);
}

TEST(AssignmentProblem, TripleCliqueIsInfeasibleInOneMemory) {
  Fixture fix(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      fix.conflicts.add_conflict(fix.groups[i], fix.groups[j], 1.0);
    }
  }
  const auto problem = fix.problem();
  EXPECT_FALSE(problem.build_memory({0, 1, 2}).has_value());
  EXPECT_EQ(problem.min_memories(), 2);  // two dual-port memories suffice
  EXPECT_FALSE(problem.evaluate({0, 0, 0}, 1).has_value());
  EXPECT_TRUE(problem.evaluate({0, 0, 1}, 2).has_value());
}

TEST(AssignmentProblem, HiddenTriangleIsDetected) {
  // A triangle {3,4,5} whose members each have a low-index pendant
  // neighbour (0-3, 1-4, 2-5).  The old greedy clique grab from each seed
  // absorbed the pendant first and reported two simultaneous accesses; the
  // exact classification must reject the set (three ports needed).
  Fixture fix(6);
  fix.conflicts.add_conflict(fix.groups[3], fix.groups[4], 1.0);
  fix.conflicts.add_conflict(fix.groups[4], fix.groups[5], 1.0);
  fix.conflicts.add_conflict(fix.groups[3], fix.groups[5], 1.0);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[3], 1.0);
  fix.conflicts.add_conflict(fix.groups[1], fix.groups[4], 1.0);
  fix.conflicts.add_conflict(fix.groups[2], fix.groups[5], 1.0);
  const auto problem = fix.problem();
  EXPECT_EQ(problem.simultaneous_accesses({0, 1, 2, 3, 4, 5}), 3);
  EXPECT_FALSE(problem.build_memory({0, 1, 2, 3, 4, 5}).has_value());
  // The pendant edges alone stay dual-port feasible.
  EXPECT_EQ(problem.simultaneous_accesses({0, 1, 2, 3}), 2);
  EXPECT_TRUE(problem.build_memory({0, 1, 2, 3}).has_value());
}

// Branch-and-bound and the incremental cost engine grow member sets one
// group at a time: the shared third-port rule plus the set's dual-port flag
// must classify every insertion as `simultaneous_accesses` of the grown set
// does.  70 groups span two bitset words; every graph carries planted
// triangles and self-conflicts.
TEST(AssignmentProblem, InsertionRuleMatchesSimultaneousAccesses) {
  constexpr int kGroups = 70;
  std::size_t seen[4] = {};
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    support::Rng rng(seed);
    Fixture fix(kGroups);
    const std::uint64_t edge_permille = 10 + 20 * (seed % 4);  // 1 % .. 7 %
    for (int i = 0; i < kGroups; ++i) {
      if (rng.below(10) == 0) {
        fix.conflicts.add_conflict(fix.groups[i], fix.groups[i], 1.0);
      }
      for (int j = i + 1; j < kGroups; ++j) {
        if (rng.below(1000) < edge_permille) {
          fix.conflicts.add_conflict(fix.groups[i], fix.groups[j], 1.0);
        }
      }
    }
    for (int t = 0; t < 4; ++t) {  // triangles across both words
      const auto a = rng.below(kGroups);
      const auto b = rng.below(kGroups);
      const auto c = rng.below(kGroups);
      if (a == b || b == c || a == c) continue;
      fix.conflicts.add_conflict(fix.groups[a], fix.groups[b], 1.0);
      fix.conflicts.add_conflict(fix.groups[b], fix.groups[c], 1.0);
      fix.conflicts.add_conflict(fix.groups[a], fix.groups[c], 1.0);
    }
    const auto problem = fix.problem();
    ASSERT_EQ(problem.conflict_words(), 2u);

    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::size_t> members;
      std::vector<std::uint64_t> bits(problem.conflict_words(), 0);
      bool dual = false;
      for (int step = 0; step < 3 * kGroups; ++step) {
        const auto group = static_cast<std::size_t>(rng.below(kGroups));
        if ((bits[group / 64] >> (group % 64)) & 1u) continue;
        auto grown = members;
        grown.push_back(group);
        const int expected = problem.simultaneous_accesses(grown);
        int classified = 3;
        if (!problem.insertion_infeasible(bits.data(), group)) {
          bool meets = false;
          for (const auto m : members) meets |= problem.conflicting(m, group);
          classified = dual || problem.self_conflicting(group) || meets ? 2 : 1;
        }
        ASSERT_EQ(classified, expected) << "seed " << seed << " trial " << trial
                                        << " step " << step << " group " << group;
        ++seen[expected];
        if (expected <= 2 && rng.below(2) == 0) {
          members = std::move(grown);
          bits[group / 64] |= std::uint64_t{1} << (group % 64);
          dual = expected == 2;
        }
      }
    }
  }
  // Every class occurs: single-port, dual-port and third-port insertions.
  EXPECT_GT(seen[1], 0u);
  EXPECT_GT(seen[2], 0u);
  EXPECT_GT(seen[3], 0u);
}

TEST(AssignmentProblem, SelfConflictPlusPairNeedsSeparation) {
  Fixture fix(2);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[0], 1.0);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[1], 1.0);
  const auto problem = fix.problem();
  // g0 needs 2 ports alone; together with conflicting g1 it needs 3 -> no.
  EXPECT_FALSE(problem.build_memory({0, 1}).has_value());
  EXPECT_TRUE(problem.build_memory({0}).has_value());
}

// --- solvers -----------------------------------------------------------------

/// Brute-force optimum for small instances.
double brute_force_best(const AssignmentProblem& problem, int memories,
                        const memlib::CostWeights& weights) {
  const std::size_t n = problem.group_count();
  std::vector<int> assignment(n, 0);
  double best = std::numeric_limits<double>::max();
  const auto total = static_cast<std::size_t>(std::pow(memories, n));
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t c = code;
    for (std::size_t i = 0; i < n; ++i) {
      assignment[i] = static_cast<int>(c % memories);
      c /= memories;
    }
    const auto summary = problem.evaluate(assignment, memories);
    if (summary) best = std::min(best, weights.scalarize(*summary));
  }
  return best;
}

/// A seeded instance rich in ties and port limits: 3..7 groups drawn from
/// three figure prototypes (so duplicated groups tie), random conflicts,
/// self-conflicting groups and a planted conflict triangle.
Fixture tie_rich_fixture(std::uint64_t seed) {
  support::Rng rng(seed);
  constexpr std::uint64_t kWords[] = {64, 256, 1024, 4096};
  constexpr int kWidths[] = {4, 8, 12, 16};
  constexpr double kRates[] = {0.0, 0.5, 1.0, 2.0};
  GroupFigures prototypes[3];
  for (auto& p : prototypes) {
    p = {kWords[rng.below(4)], kWidths[rng.below(4)], kRates[1 + rng.below(3)],
         kRates[rng.below(4)]};
  }
  const auto n = static_cast<std::size_t>(3 + rng.below(5));
  std::vector<GroupFigures> figures;
  for (std::size_t i = 0; i < n; ++i) figures.push_back(prototypes[rng.below(3)]);
  Fixture fix(figures);
  const auto conflict = [&fix](std::size_t i, std::size_t j) {
    fix.conflicts.add_conflict(fix.groups[i], fix.groups[j], 1.0);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.below(5) == 0) conflict(i, i);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.below(4) == 0) conflict(i, j);
    }
  }
  if (rng.below(2) == 0) {
    const auto a = rng.below(n);
    const auto b = (a + 1 + rng.below(n - 1)) % n;
    auto c = rng.below(n);
    while (c == a || c == b) c = rng.below(n);
    conflict(a, b);
    conflict(b, c);
    conflict(a, c);
  }
  return fix;
}

// Branch-and-bound is exact: same optimum and feasibility as exhaustive
// search, and the reported cost is the winner's own price.  The seeded
// instances carry ties, dual-port memories and third-port infeasibility.
TEST(Solvers, BranchAndBoundMatchesBruteForce) {
  std::vector<Fixture> fixtures;
  auto& graded = fixtures.emplace_back(5);
  graded.conflicts.add_conflict(graded.groups[0], graded.groups[1], 1.0);
  graded.conflicts.add_conflict(graded.groups[2], graded.groups[3], 1.0);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    fixtures.push_back(tie_rich_fixture(seed));
  }
  SolverOptions options;
  options.solver = Solver::kBranchAndBound;
  int infeasible = 0;
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    const auto problem = fixtures[f].problem();
    for (const int memories : {1, 2, 3, 4}) {
      const auto solution = solve_assignment(problem, memories, options);
      const double reference = brute_force_best(problem, memories, options.weights);
      const bool feasible = reference < std::numeric_limits<double>::max();
      ASSERT_EQ(solution.feasible, feasible)
          << "fixture " << f << " with " << memories << " memories";
      if (!feasible) {
        ++infeasible;
        continue;
      }
      EXPECT_NEAR(solution.scalar_cost, reference, 1e-12 * reference)
          << "fixture " << f << " with " << memories << " memories";
      const auto priced = problem.evaluate(solution.assignment, memories);
      ASSERT_TRUE(priced.has_value());
      EXPECT_EQ(solution.scalar_cost, options.weights.scalarize(*priced));
    }
  }
  EXPECT_GT(infeasible, 0);
}

TEST(Solvers, GreedyIsFeasibleAndSane) {
  Fixture fix(8);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[1], 1.0);
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kGreedy;
  const auto solution = solve_assignment(problem, 4, options);
  ASSERT_TRUE(solution.feasible);
  const auto check = problem.evaluate(solution.assignment, 4);
  ASSERT_TRUE(check.has_value());
  EXPECT_NEAR(options.weights.scalarize(*check), solution.scalar_cost, 1e-9);
}

TEST(Solvers, AnnealingNeverWorseThanGreedy) {
  Fixture fix(9);
  for (int i = 0; i < 4; ++i) {
    fix.conflicts.add_conflict(fix.groups[i], fix.groups[i + 1], 1.0);
  }
  const auto problem = fix.problem();
  SolverOptions greedy_options;
  greedy_options.solver = Solver::kGreedy;
  const auto greedy = solve_assignment(problem, 4, greedy_options);
  SolverOptions sa_options;
  sa_options.solver = Solver::kSimulatedAnnealing;
  sa_options.sa_iterations = 5000;
  const auto annealed = solve_assignment(problem, 4, sa_options);
  ASSERT_TRUE(greedy.feasible && annealed.feasible);
  EXPECT_LE(annealed.scalar_cost, greedy.scalar_cost + 1e-9);
}

TEST(Solvers, AnnealingIsDeterministicUnderSeed) {
  Fixture fix(7);
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 2000;
  options.seed = 42;
  const auto a = solve_assignment(problem, 3, options);
  const auto b = solve_assignment(problem, 3, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.scalar_cost, b.scalar_cost);
}

TEST(Solvers, ChainStatsAreConsistentWithSolutionTotals) {
  Fixture fix(8);
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 4000;
  options.sa_chains = 4;
  options.seed = 11;
  const auto solution = solve_assignment(problem, 3, options);
  ASSERT_TRUE(solution.feasible);
  ASSERT_EQ(solution.chains.size(), 4u);

  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
  for (const auto& chain : solution.chains) {
    moves += chain.moves;
    accepted += chain.accepted;
    ASSERT_FALSE(chain.convergence.empty());
    // The closing sample carries the chain's final cumulative totals.
    const auto& last = chain.convergence.back();
    EXPECT_EQ(last.accepted, chain.accepted);
    EXPECT_DOUBLE_EQ(last.best_cost, chain.best_cost);
    EXPECT_LE(chain.best_cost, chain.start_cost + 1e-9);
    // best_cost is non-increasing along the series.
    for (std::size_t i = 1; i < chain.convergence.size(); ++i) {
      EXPECT_LE(chain.convergence[i].best_cost,
                chain.convergence[i - 1].best_cost + 1e-12);
      EXPECT_GT(chain.convergence[i].iteration, chain.convergence[i - 1].iteration);
    }
  }
  EXPECT_EQ(solution.nodes_explored, moves);
  EXPECT_EQ(solution.accepted_moves, accepted);
}

TEST(Solvers, BranchAndBoundAndGreedyCarryNoChains) {
  Fixture fix(5);
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kBranchAndBound;
  EXPECT_TRUE(solve_assignment(problem, 2, options).chains.empty());
  options.solver = Solver::kGreedy;
  EXPECT_TRUE(solve_assignment(problem, 2, options).chains.empty());
}

TEST(Solvers, InfeasibleMemoryCountReported) {
  Fixture fix(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      fix.conflicts.add_conflict(fix.groups[i], fix.groups[j], 1.0);
    }
  }
  const auto problem = fix.problem();
  EXPECT_EQ(problem.min_memories(), 2);
  SolverOptions options;
  options.solver = Solver::kBranchAndBound;
  const auto solution = solve_assignment(problem, 1, options);
  EXPECT_FALSE(solution.feasible);
}

TEST(Solvers, EmptyProblemIsTriviallyFeasible) {
  Fixture fix(0);
  const auto problem = fix.problem();
  const auto solution = solve_assignment(problem, 3, {});
  EXPECT_TRUE(solution.feasible);
  EXPECT_DOUBLE_EQ(solution.scalar_cost, 0.0);
}

class MemoryCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(MemoryCountSweep, MoreMemoriesNeverHurtOptimalPower) {
  Fixture fix(6, 2.0);
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kBranchAndBound;
  const auto at_n = solve_assignment(problem, GetParam(), options);
  const auto at_n1 = solve_assignment(problem, GetParam() + 1, options);
  ASSERT_TRUE(at_n.feasible && at_n1.feasible);
  // The optimum over N+1 memories includes all N-memory solutions.
  EXPECT_LE(at_n1.summary.onchip_power_mw, at_n.summary.onchip_power_mw + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, MemoryCountSweep, ::testing::Values(1, 2, 3, 4, 5));

// --- shipped models ----------------------------------------------------------

struct ShippedModel {
  std::string label;
  ir::Application app;
};

/// Every shipped model at profile size 64: each workload as profiled and
/// tuned, and the tuned entropy-roster variants the exploration stages.
const std::vector<ShippedModel>& shipped_models() {
  static const auto models = [] {
    std::vector<ShippedModel> result;
    for (const auto name : workloads::workload_names()) {
      const auto* workload = workloads::find_workload(name);
      auto profiled = workload->profile({.profile_size = 64});
      auto tuned = workload->tuned_variant(profiled);
      result.push_back({std::string(name) + ":profiled", std::move(profiled)});
      result.push_back({std::string(name), std::move(tuned)});
    }
    const std::pair<std::string_view, entropy::Backend> roster[] = {
        {"btpc", entropy::Backend::kRice},
        {"btpc", entropy::Backend::kExpGolomb},
        {"hyperspec", entropy::Backend::kExpGolomb},
        {"hyperspec", entropy::Backend::kRans}};
    for (const auto& [name, backend] : roster) {
      const auto* workload = workloads::find_workload(name);
      result.push_back(
          {std::string(name) + "[" + std::string(entropy::to_string(backend)) + "]",
           workload->tuned_variant(
               workload->profile({.profile_size = 64, .entropy_backend = backend}))});
    }
    return result;
  }();
  return models;
}

const ShippedModel& shipped_model(std::string_view label) {
  for (const auto& model : shipped_models()) {
    if (model.label == label) return model;
  }
  DTSE_ASSERT(false, "unknown shipped model");
  return shipped_models().front();
}

/// The assignment problem the allocator solves for `app` at a storage
/// budget, priced over a 20 Mcycle frame.
AssignmentProblem shipped_problem(const ir::Application& app,
                                  const memlib::MemoryLibrary& library,
                                  std::uint64_t budget_cycles) {
  scbd::ScbdOptions options;
  options.global_budget_cycles = budget_cycles;
  const auto scbd_result = scbd::distribute_budget(app, options);
  return AssignmentProblem(app, MemoryAllocator::partition_groups(app).first,
                           scbd_result.conflicts, library, 20'000'000);
}

// The pruned search returns the loose reference's answer on every shipped
// model, at the exploration's three budgets and every swept count, after
// visiting no more nodes; on the btpc models it visits far fewer.
TEST(Solvers, BranchAndBoundMatchesLooseReferenceOnShippedModels) {
  const memlib::MemoryLibrary library;
  SolverOptions options;
  options.solver = Solver::kBranchAndBound;
  std::uint64_t btpc_nodes = 0;
  std::uint64_t btpc_reference_nodes = 0;
  for (const auto& model : shipped_models()) {
    for (const std::uint64_t budget : {20'000'000u, 15'000'000u, 11'600'000u}) {
      const auto problem = shipped_problem(model.app, library, budget);
      for (int n = 1; n <= 14; ++n) {
        const auto where = model.label + " at " + std::to_string(budget) + " with " +
                           std::to_string(n) + " memories";
        const auto solution = solve_assignment(problem, n, options);
        const auto reference = oracle::loose_branch_and_bound(problem, n, options);
        ASSERT_EQ(solution.feasible, reference.feasible) << where;
        EXPECT_EQ(solution.assignment, reference.assignment) << where;
        EXPECT_LE(solution.nodes_explored, reference.nodes_explored) << where;
        if (model.label.starts_with("btpc")) {
          btpc_nodes += solution.nodes_explored;
          btpc_reference_nodes += reference.nodes_explored;
        }
      }
    }
  }
  std::cout << "btpc models: " << btpc_reference_nodes << " -> " << btpc_nodes
            << " branch-and-bound nodes\n";
  EXPECT_GE(btpc_reference_nodes, 4 * btpc_nodes);
}

// --- allocator ---------------------------------------------------------------

TEST(Allocator, PartitionRespectsThresholdAndForcing) {
  ir::Application app("part");
  const auto big = app.add_group({"big", 1 << 20, 8});
  const auto small = app.add_group({"small", 128, 8});
  const auto forced_on = app.add_group({"fon", 1 << 20, 8, memlib::Location::kOnChip, 0});
  const auto forced_off = app.add_group({"foff", 64, 8, memlib::Location::kOffChip, 2});
  MemoryAllocator allocator{memlib::MemoryLibrary{}};
  const auto [onchip, offchip] = MemoryAllocator::partition_groups(app);
  EXPECT_EQ(onchip, (std::vector<ir::BasicGroupId>{small, forced_on}));
  EXPECT_EQ(offchip, (std::vector<ir::BasicGroupId>{big, forced_off}));
}

TEST(Allocator, OffchipChannelsPerGroupWithPorts) {
  ir::Application app("off");
  const auto big = app.add_group({"big", 1 << 20, 8});
  const auto big2 = app.add_group({"big2", 1 << 20, 2});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1'000'000;
  body.accesses.push_back({big, ir::AccessKind::kRead, 2.0});
  body.accesses.push_back({big2, ir::AccessKind::kWrite, 1.0});
  app.add_body(body);
  graph::ConflictGraph conflicts;
  conflicts.add_conflict(big, big, 100.0);  // self-conflict: dual port
  MemoryAllocator allocator{memlib::MemoryLibrary{}};
  const auto result = allocator.allocate(app, conflicts, {});
  ASSERT_EQ(result.offchip.size(), 2u);
  EXPECT_TRUE(result.feasible);
  const auto& ch_big = result.offchip[0].groups[0] == big ? result.offchip[0]
                                                          : result.offchip[1];
  EXPECT_EQ(ch_big.ports, memlib::PortCount::kDual);
  EXPECT_GT(result.summary.offchip_power_mw, 0.0);
  EXPECT_DOUBLE_EQ(result.summary.onchip_area_mm2, 0.0);
}

TEST(Allocator, AutoPickFindsFeasibleCount) {
  Fixture fix(6, 2.0);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[1], 1.0);
  MemoryAllocator allocator{fix.library};
  AllocationOptions options;
  options.onchip_memories = 0;
  const auto result = allocator.allocate(fix.app, fix.conflicts, options);
  EXPECT_TRUE(result.feasible);
  EXPECT_GE(result.requested_memories, 1);
  EXPECT_FALSE(result.onchip.empty());
}

// With an automatic memory count the reported search effort is the sum over
// every count tried, whichever count wins.
TEST(Allocator, AutoCountSearchNodesSumEveryCount) {
  Fixture fix(7, 2.0);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[1], 1.0);
  fix.conflicts.add_conflict(fix.groups[1], fix.groups[2], 1.0);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[2], 1.0);
  MemoryAllocator allocator{fix.library};
  AllocationOptions options;
  options.onchip_memories = 0;
  options.max_onchip_memories = 6;
  const auto result = allocator.allocate(fix.app, fix.conflicts, options);
  ASSERT_TRUE(result.feasible);

  const auto [onchip, offchip] = MemoryAllocator::partition_groups(fix.app);
  ASSERT_TRUE(offchip.empty());
  const AssignmentProblem problem(fix.app, onchip, fix.conflicts, fix.library,
                                  options.frame_cycles);
  std::uint64_t nodes = 0;
  for (int n = problem.min_memories(); n <= options.max_onchip_memories; ++n) {
    nodes += solve_assignment(problem, n, options.solver).nodes_explored;
  }
  EXPECT_GT(nodes, 0u);
  EXPECT_EQ(result.search_nodes, nodes);
}

// With an automatic memory count the earliest of equal candidates stays: a
// count above the fewest one that reaches the winning assignment prices it
// identically and cannot outrank it.
TEST(Allocator, AutoCountPicksFewestMemoriesReachingTheWinner) {
  const auto& app = shipped_model("btpc[rice]").app;
  const memlib::MemoryLibrary library;
  MemoryAllocator allocator{library};
  AllocationOptions options;
  const auto result = allocator.allocate(
      app, scbd::distribute_budget(app, {}).conflicts, options);
  ASSERT_TRUE(result.feasible);
  const auto problem = shipped_problem(app, library, options.frame_cycles);
  const auto winner =
      solve_assignment(problem, result.requested_memories, options.solver).assignment;
  for (int n = problem.min_memories(); n < result.requested_memories; ++n) {
    EXPECT_NE(solve_assignment(problem, n, options.solver).assignment, winner)
        << "count " << n << " reaches the winner picked at "
        << result.requested_memories;
  }
}

TEST(Allocator, SweepCoversRequestedCounts) {
  Fixture fix(6);
  MemoryAllocator allocator{fix.library};
  std::vector<AllocationResult> results;
  for (const int n : {2, 4, 6}) {
    AllocationOptions options;
    options.onchip_memories = n;
    results.push_back(allocator.allocate(fix.app, fix.conflicts, options));
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].requested_memories, 2);
  EXPECT_EQ(results[2].requested_memories, 6);
  for (const auto& r : results) EXPECT_TRUE(r.feasible);
  // Optimal power is non-increasing with the memory count.
  EXPECT_GE(results[0].summary.onchip_power_mw,
            results[2].summary.onchip_power_mw - 1e-9);
}

TEST(Allocator, SaTelemetryFlowsIntoAllocationResult) {
  Fixture fix(8);
  MemoryAllocator allocator{fix.library};
  AllocationOptions options;
  options.onchip_memories = 3;
  options.solver.solver = Solver::kSimulatedAnnealing;
  options.solver.sa_iterations = 2000;
  const auto result = allocator.allocate(fix.app, fix.conflicts, options);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.sa_chains.size(), 4u);  // default sa_chains
  std::uint64_t accepted = 0;
  for (const auto& chain : result.sa_chains) accepted += chain.accepted;
  EXPECT_EQ(result.accepted_moves, accepted);
}

TEST(Allocator, ReportsInfeasibleCount) {
  Fixture fix(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      fix.conflicts.add_conflict(fix.groups[i], fix.groups[j], 1.0);
    }
  }
  MemoryAllocator allocator{fix.library};
  AllocationOptions options;
  options.onchip_memories = 1;
  const auto result = allocator.allocate(fix.app, fix.conflicts, options);
  EXPECT_FALSE(result.feasible);
}

TEST(Allocator, ToStringListsMemories) {
  Fixture fix(3);
  MemoryAllocator allocator{fix.library};
  const auto result = allocator.allocate(fix.app, fix.conflicts, {});
  const auto text = result.to_string(fix.app);
  EXPECT_NE(text.find("RAM0"), std::string::npos);
  EXPECT_NE(text.find("g0"), std::string::npos);
}

}  // namespace
}  // namespace dtse::alloc
