// Tests for the signal-to-memory assignment problem, its solvers, and the
// allocation driver.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "alloc/allocator.hpp"
#include "alloc/assignment_problem.hpp"
#include "alloc/solvers.hpp"
#include "support/check.hpp"

namespace dtse::alloc {
namespace {

struct Fixture {
  ir::Application app{"fix"};
  std::vector<ir::BasicGroupId> groups;
  graph::ConflictGraph conflicts;
  memlib::MemoryLibrary library;
  std::uint64_t frame_cycles = 20'000'000;

  explicit Fixture(int n_groups, double reads_per_iter = 1.0) {
    ir::LoopBody body;
    body.name = "loop";
    body.iterations = 100'000;
    for (int i = 0; i < n_groups; ++i) {
      std::string name = "g";
      name += std::to_string(i);
      const auto id = app.add_group(
          {name, 256u << (i % 3), 4 + 4 * (i % 4)});
      groups.push_back(id);
      body.accesses.push_back({id, ir::AccessKind::kRead, reads_per_iter});
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

TEST(Solvers, BranchAndBoundMatchesBruteForce) {
  Fixture fix(5);
  fix.conflicts.add_conflict(fix.groups[0], fix.groups[1], 1.0);
  fix.conflicts.add_conflict(fix.groups[2], fix.groups[3], 1.0);
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kBranchAndBound;
  for (const int memories : {1, 2, 3}) {
    const auto solution = solve_assignment(problem, memories, options);
    const double reference = brute_force_best(problem, memories, options.weights);
    ASSERT_TRUE(solution.feasible);
    EXPECT_NEAR(solution.scalar_cost, reference, 1e-6)
        << "with " << memories << " memories";
  }
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

TEST(Solvers, ReheatingIsOffByDefaultAndDeterministic) {
  Fixture fix(9);
  for (int i = 0; i < 4; ++i) {
    fix.conflicts.add_conflict(fix.groups[i], fix.groups[i + 1], 1.0);
  }
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 4000;
  options.seed = 7;
  ASSERT_EQ(options.sa_reheat_stagnation, 0) << "reheating must default off";
  const auto baseline = solve_assignment(problem, 4, options);

  options.sa_reheat_stagnation = 50;
  const auto reheated_a = solve_assignment(problem, 4, options);
  const auto reheated_b = solve_assignment(problem, 4, options);
  ASSERT_TRUE(baseline.feasible && reheated_a.feasible);
  // Deterministic per (seed, chains) with reheating on.
  EXPECT_EQ(reheated_a.assignment, reheated_b.assignment);
  EXPECT_DOUBLE_EQ(reheated_a.scalar_cost, reheated_b.scalar_cost);
  EXPECT_EQ(reheated_a.accepted_moves, reheated_b.accepted_moves);
}

TEST(Solvers, ReheatingUnfreezesAStagnantChain) {
  Fixture fix(10);
  for (int i = 0; i < 6; ++i) {
    fix.conflicts.add_conflict(fix.groups[i], fix.groups[(i + 3) % 10], 1.0);
  }
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_chains = 1;
  options.sa_iterations = 20000;
  // With the geometric decay the late schedule is effectively frozen (only
  // strict improvements pass, and those dry up), so the stagnation counter
  // must fire and restore acceptance activity.
  const auto frozen = solve_assignment(problem, 4, options);

  options.sa_reheat_stagnation = 200;
  const auto reheated = solve_assignment(problem, 4, options);
  ASSERT_TRUE(frozen.feasible && reheated.feasible);
  EXPECT_GT(reheated.accepted_moves, frozen.accepted_moves);
  // Best-of still includes the greedy start, so quality never regresses
  // below it (the chains themselves may diverge either way).
  SolverOptions greedy_options = options;
  greedy_options.solver = Solver::kGreedy;
  const auto greedy = solve_assignment(problem, 4, greedy_options);
  EXPECT_LE(reheated.scalar_cost, greedy.scalar_cost + 1e-9);
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
  std::uint64_t reheats = 0;
  for (const auto& chain : solution.chains) {
    moves += chain.moves;
    accepted += chain.accepted;
    reheats += chain.reheats;
    ASSERT_FALSE(chain.convergence.empty());
    // The closing sample carries the chain's final cumulative totals.
    const auto& last = chain.convergence.back();
    EXPECT_EQ(last.accepted, chain.accepted);
    EXPECT_EQ(last.reheats, chain.reheats);
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
  EXPECT_EQ(solution.reheats, reheats);
}

TEST(Solvers, ReheatCountsSurfaceInSolutionAndChains) {
  Fixture fix(10);
  for (int i = 0; i < 6; ++i) {
    fix.conflicts.add_conflict(fix.groups[i], fix.groups[(i + 3) % 10], 1.0);
  }
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_chains = 1;
  options.sa_iterations = 20000;
  options.sa_reheat_stagnation = 200;
  const auto solution = solve_assignment(problem, 4, options);
  ASSERT_TRUE(solution.feasible);
  ASSERT_EQ(solution.chains.size(), 1u);
  EXPECT_GT(solution.reheats, 0u);
  EXPECT_EQ(solution.reheats, solution.chains[0].reheats);
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

// --- allocator ---------------------------------------------------------------

TEST(Allocator, PartitionRespectsThresholdAndForcing) {
  ir::Application app("part");
  const auto big = app.add_group({"big", 1 << 20, 8});
  const auto small = app.add_group({"small", 128, 8});
  const auto forced_on = app.add_group({"fon", 1 << 20, 8, memlib::Location::kOnChip, 0});
  const auto forced_off = app.add_group({"foff", 64, 8, memlib::Location::kOffChip, 2});
  MemoryAllocator allocator{memlib::MemoryLibrary{}};
  const auto [onchip, offchip] = allocator.partition_groups(app, {});
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

  const auto [onchip, offchip] = allocator.partition_groups(fix.app, options);
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

TEST(Allocator, SweepCoversRequestedCounts) {
  Fixture fix(6);
  MemoryAllocator allocator{fix.library};
  const auto results = allocator.sweep_allocations(fix.app, fix.conflicts, {2, 4, 6}, {});
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
