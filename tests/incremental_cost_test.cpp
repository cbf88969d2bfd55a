// Tests for the incremental assignment-cost engine and the multi-chain
// annealing built on it.  The load-bearing property: the incrementally
// maintained scalar cost equals a from-scratch evaluation after any move
// sequence, which is what lets the solver trust O(delta) re-costing.  The
// from-scratch side is the test-side oracle in oracles/full_recost.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "alloc/incremental_cost.hpp"
#include "alloc/solvers.hpp"
#include "oracles/full_recost.hpp"
#include "support/rng.hpp"

namespace dtse::alloc {
namespace {

struct Fixture {
  ir::Application app{"inc"};
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
          {name, 256u << (i % 3), 4 + 4 * (i % 4), {}, 2});
      groups.push_back(id);
      body.accesses.push_back({id, ir::AccessKind::kRead, reads_per_iter});
      if (i % 2 == 0) {
        body.accesses.push_back({id, ir::AccessKind::kWrite, 0.5 * reads_per_iter});
      }
    }
    app.add_body(body);
  }

  /// Sparse pairwise conflicts plus one self-conflict, so moves regularly
  /// hit the dual-port and infeasible (three-port) branches.
  void add_conflict_pattern() {
    const int n = static_cast<int>(groups.size());
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if ((i * 7 + j * 3) % 5 == 0) {
          conflicts.add_conflict(groups[static_cast<std::size_t>(i)],
                                 groups[static_cast<std::size_t>(j)], 1.0 + j);
        }
      }
    }
    conflicts.add_conflict(groups[0], groups[0], 2.0);
  }

  [[nodiscard]] AssignmentProblem problem() const {
    return AssignmentProblem(app, groups, conflicts, library, frame_cycles);
  }
};

/// A feasible starting assignment from the greedy constructor.
std::vector<int> greedy_start(const AssignmentProblem& problem, int memories) {
  SolverOptions options;
  options.solver = Solver::kGreedy;
  const auto solution = solve_assignment(problem, memories, options);
  EXPECT_TRUE(solution.feasible);
  return solution.assignment;
}

TEST(AssignmentState, ResetMatchesFullEvaluate) {
  Fixture fix(10);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  const auto start = greedy_start(problem, 4);

  AssignmentState state(problem, 4, weights);
  ASSERT_TRUE(state.reset(start));
  const auto summary = problem.evaluate(start, 4);
  ASSERT_TRUE(summary.has_value());
  EXPECT_DOUBLE_EQ(state.scalar_cost(), weights.scalarize(*summary));
  EXPECT_DOUBLE_EQ(state.onchip_total().area_mm2, summary->onchip_area_mm2);
  EXPECT_DOUBLE_EQ(state.onchip_total().power_mw, summary->onchip_power_mw);
}

TEST(AssignmentState, ResetDetectsInfeasibleAssignment) {
  Fixture fix(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      fix.conflicts.add_conflict(fix.groups[static_cast<std::size_t>(i)],
                                 fix.groups[static_cast<std::size_t>(j)], 1.0);
    }
  }
  const auto problem = fix.problem();
  AssignmentState state(problem, 2, {});
  EXPECT_FALSE(state.reset({0, 0, 0}));  // a triple clique in one memory
  EXPECT_TRUE(state.reset({0, 0, 1}));
}

/// Drives `state` and the oracle through the same move and checks that both
/// price it identically, bit for bit, and agree with a from-scratch evaluate.
void expect_same_costs(const AssignmentState& state, const oracle::FullRecostState& full,
                       const AssignmentProblem& problem, int memories,
                       const memlib::CostWeights& weights) {
  ASSERT_EQ(state.assignment(), full.assignment());
  EXPECT_EQ(state.scalar_cost(), full.scalar_cost());
  const auto summary = problem.evaluate(state.assignment(), memories);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(state.scalar_cost(), weights.scalarize(*summary));
  EXPECT_EQ(state.onchip_total().area_mm2, summary->onchip_area_mm2);
  EXPECT_EQ(state.onchip_total().power_mw, summary->onchip_power_mw);
}

void apply_both(AssignmentState& state, oracle::FullRecostState& full, std::size_t group,
                int new_m) {
  const auto fast = state.apply(group, new_m);
  const auto slow = full.apply(group, new_m);
  ASSERT_TRUE(fast.has_value() && slow.has_value());
  EXPECT_EQ(*fast, *slow);
}

void revert_both(AssignmentState& state, oracle::FullRecostState& full) {
  state.revert();
  full.revert();
}

// The memory width is the max over its members.  When the only member at
// that width leaves, the state must find the next-widest member; a revert
// must restore the old width.  Fixture widths cycle 4, 8, 12, 16.
TEST(AssignmentState, OnlyWidestMemberLeavingShrinksTheWidth) {
  constexpr int kMemories = 3;
  Fixture fix(6);
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  AssignmentState state(problem, kMemories, weights);
  oracle::FullRecostState full(problem, kMemories, weights);
  // Memory 0 holds widths {4, 8, 16}; group 3 is its only 16-bit member.
  const std::vector<int> start = {0, 0, 1, 0, 1, 2};
  ASSERT_TRUE(state.reset(start));
  ASSERT_TRUE(full.reset(start));
  expect_same_costs(state, full, problem, kMemories, weights);

  apply_both(state, full, 3, 2);  // memory 0 narrows to 8 bits
  expect_same_costs(state, full, problem, kMemories, weights);
  revert_both(state, full);       // and widens back to 16
  expect_same_costs(state, full, problem, kMemories, weights);
  EXPECT_EQ(state.assignment(), start);

  apply_both(state, full, 3, 1);  // memory 1 widens from 12 to 16 bits
  expect_same_costs(state, full, problem, kMemories, weights);
  apply_both(state, full, 2, 0);  // memory 1's 12-bit member leaves a 16-bit holder
  expect_same_costs(state, full, problem, kMemories, weights);
  apply_both(state, full, 3, 0);  // memory 1 drops back to its 4-bit member
  expect_same_costs(state, full, problem, kMemories, weights);
  revert_both(state, full);
  expect_same_costs(state, full, problem, kMemories, weights);

  // Emptying a memory, then refilling it, starts its width from scratch.
  apply_both(state, full, 5, 0);
  expect_same_costs(state, full, problem, kMemories, weights);
  apply_both(state, full, 1, 2);
  expect_same_costs(state, full, problem, kMemories, weights);
}

// Two members tie at the max width: the first to leave must not narrow the
// memory, the second must; reverts step back through both states.
TEST(AssignmentState, TiedWidestMembersLeaveOneAtATime) {
  constexpr int kMemories = 3;
  Fixture fix(8);
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  AssignmentState state(problem, kMemories, weights);
  oracle::FullRecostState full(problem, kMemories, weights);
  // Memory 0 holds widths {4, 16, 16} (groups 0, 3, 7).
  const std::vector<int> start = {0, 1, 1, 0, 2, 2, 1, 0};
  ASSERT_TRUE(state.reset(start));
  ASSERT_TRUE(full.reset(start));
  expect_same_costs(state, full, problem, kMemories, weights);

  apply_both(state, full, 3, 1);  // one 16-bit holder left: width stays 16
  expect_same_costs(state, full, problem, kMemories, weights);
  apply_both(state, full, 7, 2);  // none left: width falls to 4
  expect_same_costs(state, full, problem, kMemories, weights);
  revert_both(state, full);       // group 7 returns: 16 again
  expect_same_costs(state, full, problem, kMemories, weights);
  apply_both(state, full, 7, 1);  // memory 1 now ties 16-bit groups 3 and 7
  expect_same_costs(state, full, problem, kMemories, weights);
  revert_both(state, full);
  expect_same_costs(state, full, problem, kMemories, weights);
  apply_both(state, full, 3, 0);  // group 3 rejoins the tie in memory 0
  expect_same_costs(state, full, problem, kMemories, weights);
  revert_both(state, full);
  expect_same_costs(state, full, problem, kMemories, weights);
}

// The correctness anchor: over 10k random moves (applied, reverted, accepted
// in random mixture) the incremental cost stays within 1e-9 of a
// from-scratch scalarization — and the full-recost oracle agrees move by
// move, including on which moves are infeasible.
TEST(AssignmentState, IncrementalMatchesFullRecostOver10kRandomMoves) {
  constexpr int kMemories = 4;
  Fixture fix(12, 2.0);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  const auto start = greedy_start(problem, kMemories);

  AssignmentState incremental(problem, kMemories, weights);
  oracle::FullRecostState full(problem, kMemories, weights);
  ASSERT_TRUE(incremental.reset(start));
  ASSERT_TRUE(full.reset(start));

  support::Rng rng(7);
  int applied = 0;
  for (int move = 0; move < 10'000; ++move) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(kMemories));
    if (new_m == incremental.assignment()[group]) continue;

    const auto inc_cost = incremental.apply(group, new_m);
    const auto full_cost = full.apply(group, new_m);
    ASSERT_EQ(inc_cost.has_value(), full_cost.has_value()) << "move " << move;
    if (!inc_cost) continue;
    ++applied;
    ASSERT_NEAR(*inc_cost, *full_cost, 1e-9) << "move " << move;
    EXPECT_EQ(incremental.assignment(), full.assignment());

    if (rng.uniform() < 0.3) {  // reject a fraction, exercising revert()
      incremental.revert();
      full.revert();
      ASSERT_NEAR(incremental.scalar_cost(), full.scalar_cost(), 1e-9) << "move " << move;
    }
  }
  ASSERT_GT(applied, 1'000) << "conflict pattern starves the move generator";

  // Final from-scratch anchor on the surviving assignment.
  const auto summary = problem.evaluate(incremental.assignment(), kMemories);
  ASSERT_TRUE(summary.has_value());
  EXPECT_NEAR(incremental.scalar_cost(), weights.scalarize(*summary), 1e-9);
}

// The O(members) count-maintenance path at the member-set sizes it exists
// for: 96 groups in 3 memories average 32 members per memory, so every move
// exercises bitset-sized neighbourhoods, and the full-recost oracle (which
// re-derives the port counts from scratch through `simultaneous_accesses`)
// must agree move by move — including on which moves are infeasible.
TEST(AssignmentState, IncrementalMatchesFullRecostWithLargeMemberSets) {
  constexpr int kMemories = 3;
  constexpr int kGroups = 96;
  Fixture fix(kGroups, 2.0);
  // Sparser pattern than add_conflict_pattern: at 32 members per memory a
  // dense graph would make every move infeasible and starve the test.
  for (int i = 0; i < kGroups; ++i) {
    for (int j = i + 1; j < kGroups; ++j) {
      if ((i * 7 + j * 3) % 41 == 0) {
        fix.conflicts.add_conflict(fix.groups[static_cast<std::size_t>(i)],
                                   fix.groups[static_cast<std::size_t>(j)], 1.0 + j);
      }
    }
  }
  fix.conflicts.add_conflict(fix.groups[1], fix.groups[1], 2.0);
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  const auto start = greedy_start(problem, kMemories);

  AssignmentState incremental(problem, kMemories, weights);
  oracle::FullRecostState full(problem, kMemories, weights);
  ASSERT_TRUE(incremental.reset(start));
  ASSERT_TRUE(full.reset(start));

  support::Rng rng(13);
  int applied = 0;
  int rejected = 0;
  for (int move = 0; move < 10'000; ++move) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(kMemories));
    if (new_m == incremental.assignment()[group]) continue;

    const auto inc_cost = incremental.apply(group, new_m);
    const auto full_cost = full.apply(group, new_m);
    ASSERT_EQ(inc_cost.has_value(), full_cost.has_value()) << "move " << move;
    if (!inc_cost) {
      ++rejected;
      continue;
    }
    ++applied;
    ASSERT_NEAR(*inc_cost, *full_cost, 1e-9) << "move " << move;
    if (rng.uniform() < 0.3) {
      incremental.revert();
      full.revert();
      ASSERT_NEAR(incremental.scalar_cost(), full.scalar_cost(), 1e-9) << "move " << move;
    }
  }
  ASSERT_GT(applied, 1'000) << "conflict pattern starves the move generator";
  ASSERT_GT(rejected, 10) << "pattern never exercises the infeasibility path";

  const auto summary = problem.evaluate(incremental.assignment(), kMemories);
  ASSERT_TRUE(summary.has_value());
  EXPECT_NEAR(incremental.scalar_cost(), weights.scalarize(*summary), 1e-9);
}

TEST(Solvers, StartTemperatureIsAFractionOfStartCostWithFloor) {
  SolverOptions options;
  options.sa_initial_temperature = 4.0;
  // Proportional to the starting cost...
  EXPECT_DOUBLE_EQ(sa_start_temperature(100.0, options), 4.0 * 0.02 * 100.0);
  EXPECT_DOUBLE_EQ(sa_start_temperature(200.0, options),
                   2.0 * sa_start_temperature(100.0, options));
  // ...floored at cost 1 so near-zero starts still move...
  EXPECT_DOUBLE_EQ(sa_start_temperature(0.25, options), 4.0 * 0.02);
  // ...and linear in the temperature knob.
  options.sa_initial_temperature = 8.0;
  EXPECT_DOUBLE_EQ(sa_start_temperature(100.0, options), 8.0 * 0.02 * 100.0);
  // Notably NOT divided by sa_iterations (the old dead formula): long chains
  // must not start frozen.
  options.sa_iterations = 1'000'000;
  EXPECT_DOUBLE_EQ(sa_start_temperature(100.0, options), 8.0 * 0.02 * 100.0);
}

TEST(Solvers, MultiChainIsDeterministicAcrossParallelism) {
  Fixture fix(10);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 3000;
  options.sa_chains = 3;
  options.seed = 11;

  options.sa_parallelism = 1;
  const auto reference = solve_assignment(problem, 4, options);
  ASSERT_TRUE(reference.feasible);
  for (const unsigned parallelism : {2u, 4u, 0u}) {
    options.sa_parallelism = parallelism;
    const auto run = solve_assignment(problem, 4, options);
    EXPECT_EQ(run.assignment, reference.assignment) << "parallelism " << parallelism;
    EXPECT_DOUBLE_EQ(run.scalar_cost, reference.scalar_cost);
    EXPECT_EQ(run.nodes_explored, reference.nodes_explored);
    EXPECT_EQ(run.accepted_moves, reference.accepted_moves);
  }
}

// Pinned annealing trajectory, recorded before the per-memory aggregates
// replaced the member lists: the incremental cost is bit-exact, so the
// chains make the same accept decisions and land on the same solution.
TEST(Solvers, AnnealingTrajectoryIsPinned) {
  Fixture fix(11);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 2000;
  options.sa_chains = 2;
  options.seed = 5;

  const auto solution = solve_assignment(problem, 4, options);
  ASSERT_TRUE(solution.feasible);
  std::uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &solution.scalar_cost, sizeof(cost_bits));
  EXPECT_EQ(solution.assignment, (std::vector<int>{2, 0, 1, 3, 2, 0, 1, 3, 0, 0, 1}));
  EXPECT_EQ(cost_bits, 0x4041dc04833c9ebdull) << std::hex << cost_bits;
  EXPECT_EQ(solution.accepted_moves, 105u);
  EXPECT_EQ(solution.nodes_explored, 1514u);
}

// The oracle's chain replay is the solver's chain 0: with one chain it lands
// on the solver's answer through either cost path, move for move.
TEST(Solvers, GreedyChainReplayMatchesSolver) {
  Fixture fix(12, 2.0);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 3000;
  options.sa_chains = 1;
  options.seed = 9;

  const auto solution = solve_assignment(problem, 4, options);
  const auto fast = oracle::anneal_greedy_chain<AssignmentState>(problem, 4, options);
  const auto full = oracle::anneal_greedy_chain<oracle::FullRecostState>(problem, 4, options);
  ASSERT_TRUE(solution.feasible);
  for (const auto* run : {&fast, &full}) {
    EXPECT_EQ(run->best_assignment, solution.assignment);
    EXPECT_EQ(run->best_cost, solution.scalar_cost);
    EXPECT_EQ(run->moves, solution.nodes_explored);
    EXPECT_EQ(run->accepted, solution.accepted_moves);
  }
}

TEST(Solvers, DiversifiedStartsAreDeterministicAndNeverLoseToGreedy) {
  Fixture fix(12, 2.0);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions greedy_options;
  greedy_options.solver = Solver::kGreedy;
  const auto greedy = solve_assignment(problem, 4, greedy_options);
  ASSERT_TRUE(greedy.feasible);

  for (const auto start : {SaStart::kGreedy, SaStart::kPerturbedGreedy,
                           SaStart::kRandomFeasible}) {
    SolverOptions options;
    options.solver = Solver::kSimulatedAnnealing;
    options.sa_iterations = 4000;
    options.sa_chains = 4;
    options.seed = 17;
    options.sa_start = start;
    const auto a = solve_assignment(problem, 4, options);
    const auto b = solve_assignment(problem, 4, options);
    ASSERT_TRUE(a.feasible) << to_string(start);
    // Deterministic per (seed, chain) configuration...
    EXPECT_EQ(a.assignment, b.assignment) << to_string(start);
    EXPECT_DOUBLE_EQ(a.scalar_cost, b.scalar_cost) << to_string(start);
    // ...at any parallelism...
    options.sa_parallelism = 4;
    const auto parallel = solve_assignment(problem, 4, options);
    EXPECT_EQ(parallel.assignment, a.assignment) << to_string(start);
    // ...and chain 0's pure greedy start keeps the best-of from regressing.
    EXPECT_LE(a.scalar_cost, greedy.scalar_cost + 1e-9) << to_string(start);
    const auto check = problem.evaluate(a.assignment, 4);
    ASSERT_TRUE(check.has_value()) << to_string(start);
  }
}

TEST(Solvers, ChainsSplitTheTotalMoveBudget) {
  Fixture fix(10, 2.0);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  SolverOptions greedy_options;
  greedy_options.solver = Solver::kGreedy;
  const auto greedy = solve_assignment(problem, 4, greedy_options);
  ASSERT_TRUE(greedy.feasible);

  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 2000;
  options.seed = 3;
  for (const int chains : {1, 4}) {
    options.sa_chains = chains;
    const auto solution = solve_assignment(problem, 4, options);
    ASSERT_TRUE(solution.feasible);
    // sa_iterations is a *total* budget: more chains may not do more moves.
    // (Moves exclude same-memory picks, so the count is at most the budget.)
    EXPECT_LE(solution.nodes_explored,
              static_cast<std::uint64_t>(options.sa_iterations))
        << chains << " chains";
    // Best-of-chains starts from the greedy solution, so it never loses to it.
    EXPECT_LE(solution.scalar_cost, greedy.scalar_cost + 1e-9) << chains << " chains";
  }
}

}  // namespace
}  // namespace dtse::alloc
