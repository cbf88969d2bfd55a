// Tests for the incremental assignment-cost engine and the multi-chain
// annealing built on it.  The load-bearing property: the incrementally
// maintained scalar cost equals a from-scratch evaluation after any move
// sequence, which is what lets the solver trust O(delta) re-costing.  The
// from-scratch side is the test-side oracle in oracles/full_recost.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <set>

#include "alloc/allocator.hpp"
#include "alloc/incremental_cost.hpp"
#include "alloc/solvers.hpp"
#include "core/explorer.hpp"
#include "obs/telemetry.hpp"
#include "oracles/full_recost.hpp"
#include "scbd/budget_distribution.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

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

/// Checks that `state` and the oracle hold the same assignment and price it
/// identically, bit for bit, and agree with a from-scratch evaluate.
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

/// Prices one move on both states and checks that they agree on its
/// feasibility and exact cost, and that the quote's slack covers the exact
/// delta.  Returns whether the move is feasible; nothing is committed.
bool price_both(AssignmentState& state, oracle::FullRecostState& full, std::size_t group,
                int new_m) {
  const auto quote = state.price(group, new_m);
  const auto full_quote = full.price(group, new_m);
  EXPECT_EQ(quote.has_value(), full_quote.has_value());
  if (!quote || !full_quote) return false;
  const double exact = state.exact_price();
  EXPECT_EQ(exact, full.exact_price());
  EXPECT_LE(std::abs((quote->estimate - state.scalar_cost()) - (exact - state.scalar_cost())),
            quote->slack);
  return true;
}

void move_both(AssignmentState& state, oracle::FullRecostState& full, std::size_t group,
               int new_m) {
  ASSERT_TRUE(price_both(state, full, group, new_m));
  state.commit();
  full.commit();
}

// The memory width is the max over its members.  When the only member at
// that width leaves, the state must find the next-widest member; moving it
// back must restore the old width.  Fixture widths cycle 4, 8, 12, 16.
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

  ASSERT_TRUE(price_both(state, full, 3, 2));  // priced narrowing, not committed
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 3, 2);  // memory 0 narrows to 8 bits
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 3, 0);  // and widens back to 16
  expect_same_costs(state, full, problem, kMemories, weights);
  EXPECT_EQ(state.assignment(), start);

  move_both(state, full, 3, 1);  // memory 1 widens from 12 to 16 bits
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 2, 0);  // memory 1's 12-bit member leaves a 16-bit holder
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 3, 0);  // memory 1 drops back to its 4-bit member
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 3, 1);
  expect_same_costs(state, full, problem, kMemories, weights);

  // Emptying a memory, then refilling it, starts its width from scratch.
  move_both(state, full, 5, 0);
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 1, 2);
  expect_same_costs(state, full, problem, kMemories, weights);
}

// Two members tie at the max width: the first to leave must not narrow the
// memory, the second must; moving them back steps through both states.
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

  move_both(state, full, 3, 1);  // one 16-bit holder left: width stays 16
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 7, 2);  // none left: width falls to 4
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 7, 0);  // group 7 returns: 16 again
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 7, 1);  // memory 1 now ties 16-bit groups 3 and 7
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 7, 0);
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 3, 0);  // group 3 rejoins the tie in memory 0
  expect_same_costs(state, full, problem, kMemories, weights);
  move_both(state, full, 3, 1);
  expect_same_costs(state, full, problem, kMemories, weights);
}

// A price is a pure query: any run of uncommitted prices leaves the
// assignment, the cost and the price of any later move exactly as they were.
TEST(AssignmentState, PriceLeavesStateUntouched) {
  constexpr int kMemories = 4;
  Fixture fix(12, 2.0);
  fix.add_conflict_pattern();
  const auto problem = fix.problem();
  AssignmentState state(problem, kMemories, {});
  ASSERT_TRUE(state.reset(greedy_start(problem, kMemories)));

  support::Rng rng(23);
  const auto random_move = [&] {
    while (true) {
      const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
      const int to = static_cast<int>(rng.below(kMemories));
      if (to != state.assignment()[group]) return std::pair{group, to};
    }
  };
  int probed = 0;
  for (int round = 0; round < 200; ++round) {
    const auto assignment = state.assignment();
    const double cost = state.scalar_cost();
    const auto [group, to] = random_move();
    const auto probe = state.price(group, to);
    const double probe_exact = probe ? state.exact_price() : 0.0;
    for (int i = 0; i < 50; ++i) {
      const auto [g, m] = random_move();
      (void)state.price(g, m);
    }
    ASSERT_EQ(state.assignment(), assignment) << "round " << round;
    ASSERT_EQ(state.scalar_cost(), cost) << "round " << round;
    const auto again = state.price(group, to);
    ASSERT_EQ(again.has_value(), probe.has_value()) << "round " << round;
    if (probe) {
      ++probed;
      EXPECT_EQ(again->estimate, probe->estimate) << "round " << round;
      EXPECT_EQ(again->slack, probe->slack) << "round " << round;
      EXPECT_EQ(state.exact_price(), probe_exact) << "round " << round;
      state.commit();  // move on, so the rounds visit different states
    }
  }
  ASSERT_GT(probed, 50);
}

using MemberSet = std::vector<std::uint64_t>;

/// Member bitset of memory `m` in `assignment` with `group` moved to `to`.
MemberSet moved_members(const std::vector<int>& assignment, std::size_t group, int to, int m) {
  MemberSet bits((assignment.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if ((i == group ? to : assignment[i]) == m) bits[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return bits;
}

struct MoveCounts {
  int feasible = 0;
  int infeasible = 0;
};

/// Drives both states through `moves` random moves, pricing each on both and
/// committing a random 70% of the feasible ones.  `priced_sets`, when given,
/// collects every non-empty member set priced.
MoveCounts random_differential(AssignmentState& incremental, oracle::FullRecostState& full,
                               const AssignmentProblem& problem, int memories,
                               std::uint64_t seed, int moves,
                               std::set<MemberSet>* priced_sets = nullptr) {
  support::Rng rng(seed);
  MoveCounts counts;
  for (int move = 0; move < moves; ++move) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(static_cast<std::uint64_t>(memories)));
    const int from = incremental.assignment()[group];
    if (new_m == from) continue;
    if (!price_both(incremental, full, group, new_m)) {
      ++counts.infeasible;
      continue;
    }
    ++counts.feasible;
    if (priced_sets != nullptr) {
      const auto& assignment = incremental.assignment();
      priced_sets->insert(moved_members(assignment, group, new_m, new_m));
      auto source = moved_members(assignment, group, new_m, from);
      if (std::ranges::any_of(source, [](std::uint64_t w) { return w != 0; })) {
        priced_sets->insert(std::move(source));
      }
    }
    if (rng.uniform() < 0.7) {
      incremental.commit();
      full.commit();
      EXPECT_EQ(incremental.scalar_cost(), full.scalar_cost()) << "move " << move;
      EXPECT_EQ(incremental.assignment(), full.assignment()) << "move " << move;
    }
    if (::testing::Test::HasFailure()) return counts;
  }
  return counts;
}

// The correctness anchor: over 10k random moves (priced, committed or left
// uncommitted in random mixture) every exact price matches a from-scratch
// scalarization bit for bit, every quote's slack covers the exact delta, and
// the full-recost oracle agrees move by move, including on which moves are
// infeasible.
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
  const auto counts = random_differential(incremental, full, problem, kMemories, 7, 10'000);
  ASSERT_GT(counts.feasible, 1'000) << "conflict pattern starves the move generator";
  expect_same_costs(incremental, full, problem, kMemories, weights);
}

/// A fixture with `groups` groups and a sparse conflict pattern (plus one
/// self-conflict), so that memories of dozens of members stay feasible.
Fixture sparse_fixture(int groups, int modulus) {
  Fixture fix(groups, 2.0);
  for (int i = 0; i < groups; ++i) {
    for (int j = i + 1; j < groups; ++j) {
      if ((i * 7 + j * 3) % modulus == 0) {
        fix.conflicts.add_conflict(fix.groups[static_cast<std::size_t>(i)],
                                   fix.groups[static_cast<std::size_t>(j)], 1.0 + j);
      }
    }
  }
  fix.conflicts.add_conflict(fix.groups[1], fix.groups[1], 2.0);
  return fix;
}

// The O(members) count-maintenance path at the member-set sizes it exists
// for: 96 groups in 3 memories average 32 members per memory, so every move
// exercises bitset-sized neighbourhoods, and the full-recost oracle (which
// re-derives the port counts from scratch through `simultaneous_accesses`)
// must agree move by move — including on which moves are infeasible.
TEST(AssignmentState, IncrementalMatchesFullRecostWithLargeMemberSets) {
  constexpr int kMemories = 3;
  // Sparser pattern than add_conflict_pattern: at 32 members per memory a
  // dense graph would make every move infeasible and starve the test.
  const Fixture fix = sparse_fixture(96, 41);
  const auto problem = fix.problem();
  const memlib::CostWeights weights;
  const auto start = greedy_start(problem, kMemories);

  AssignmentState incremental(problem, kMemories, weights);
  oracle::FullRecostState full(problem, kMemories, weights);
  ASSERT_TRUE(incremental.reset(start));
  ASSERT_TRUE(full.reset(start));
  const auto counts = random_differential(incremental, full, problem, kMemories, 13, 10'000);
  ASSERT_GT(counts.feasible, 1'000) << "conflict pattern starves the move generator";
  ASSERT_GT(counts.infeasible, 10) << "pattern never exercises the infeasibility path";
  expect_same_costs(incremental, full, problem, kMemories, weights);
}

// Past 64 groups a memo key spans several bitset words, and a random walk
// over 150 groups in 6 memories prices far more distinct member sets than
// the memo has slots, so slots are overwritten and keys that share a slot
// (or agree in all but one word) are told apart.  Every price must still
// match the oracle bit for bit.
TEST(AssignmentState, MultiWordMemoKeysMatchFullRecost) {
  constexpr int kMemories = 6;
  constexpr int kGroups = 150;
  const Fixture fix = sparse_fixture(kGroups, 53);
  const auto problem = fix.problem();
  ASSERT_EQ(problem.conflict_words(), 3u);
  const memlib::CostWeights weights{.area_weight = 0.5, .power_weight = 3.0};
  const auto start = greedy_start(problem, kMemories);

  AssignmentState incremental(problem, kMemories, weights);
  oracle::FullRecostState full(problem, kMemories, weights);
  ASSERT_TRUE(incremental.reset(start));
  ASSERT_TRUE(full.reset(start));
  std::set<MemberSet> priced_sets;
  random_differential(incremental, full, problem, kMemories, 29, 4'000, &priced_sets);
  // More distinct keys than slots: by pigeonhole some slot was re-keyed.
  ASSERT_GT(priced_sets.size(), AssignmentState::kMemoSlots);
  expect_same_costs(incremental, full, problem, kMemories, weights);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

// The two member-set widths are one source: driven through the same moves,
// the one-word state and the multi-word state quote, price, commit and miss
// their memos identically, bit for bit.
TEST(AssignmentState, OneWordStateMatchesMultiWordStateOver10kMoves) {
  constexpr int kMemories = 5;
  const Fixture fix = sparse_fixture(48, 13);
  const auto problem = fix.problem();
  ASSERT_EQ(problem.conflict_words(), 1u);
  const memlib::CostWeights weights{.area_weight = 0.75, .power_weight = 3.5};
  const auto start = greedy_start(problem, kMemories);

  OneWordAssignmentState one(problem, kMemories, weights);
  AssignmentState any(problem, kMemories, weights);
  ASSERT_TRUE(one.reset(start));
  ASSERT_TRUE(any.reset(start));
  ASSERT_EQ(bits_of(one.scalar_cost()), bits_of(any.scalar_cost()));

  support::Rng rng(41);
  MoveCounts counts;
  for (int move = 0; move < 10'000; ++move) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int to = static_cast<int>(rng.below(kMemories));
    if (to == one.assignment()[group]) continue;
    const auto a = one.price(group, to);
    const auto b = any.price(group, to);
    ASSERT_EQ(a.has_value(), b.has_value()) << "move " << move;
    ASSERT_EQ(one.memo_misses(), any.memo_misses()) << "move " << move;
    if (!a) {
      ++counts.infeasible;
      continue;
    }
    ++counts.feasible;
    ASSERT_EQ(bits_of(a->estimate), bits_of(b->estimate)) << "move " << move;
    ASSERT_EQ(bits_of(a->slack), bits_of(b->slack)) << "move " << move;
    ASSERT_EQ(bits_of(one.exact_price()), bits_of(any.exact_price())) << "move " << move;
    if (rng.uniform() < 0.7) {
      one.commit();
      any.commit();
      ASSERT_EQ(bits_of(one.scalar_cost()), bits_of(any.scalar_cost()))
          << "move " << move;
      ASSERT_EQ(one.assignment(), any.assignment()) << "move " << move;
    }
  }
  ASSERT_GT(counts.feasible, 1'000) << "conflict pattern starves the move generator";
  ASSERT_GT(counts.infeasible, 10) << "pattern never exercises the infeasibility path";
  EXPECT_EQ(one.memo_lookups(), any.memo_lookups());
  EXPECT_GT(one.memo_misses(), 0u);
  EXPECT_LT(one.memo_misses(), one.memo_lookups());
  oracle::FullRecostState full(problem, kMemories, weights);
  ASSERT_TRUE(full.reset(one.assignment()));
  EXPECT_EQ(bits_of(one.scalar_cost()), bits_of(full.scalar_cost()));
}

TEST(AssignmentState, OneWordStateRejectsWiderProblems) {
  const Fixture fix = sparse_fixture(65, 53);
  const auto problem = fix.problem();
  ASSERT_EQ(problem.conflict_words(), 2u);
  EXPECT_THROW(OneWordAssignmentState(problem, 4, {}), support::ContractError);
}

/// The tuned default models of every registered workload merged into one
/// shared model, with its conflicts at the full frame budget: the instance
/// behind the slow what-if queries (27 on-chip groups, past the
/// branch-and-bound limit, so `Solver::kAuto` anneals it).
const AssignmentProblem& shared_problem() {
  struct Shared {
    std::vector<ir::Application> tuned;
    ir::Application merged{"shared"};
    graph::ConflictGraph conflicts;
    memlib::MemoryLibrary library;
    std::unique_ptr<AssignmentProblem> problem;
  };
  static const auto shared = [] {
    auto s = std::make_unique<Shared>();
    std::vector<std::pair<std::string, const ir::Application*>> apps;
    const auto names = workloads::workload_names();
    for (const auto name : names) {
      const auto* workload = workloads::find_workload(name);
      s->tuned.push_back(workload->tuned_variant(workload->profile({})));
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
      apps.emplace_back(std::string(names[i]), &s->tuned[i]);
    }
    s->merged = core::merge_applications(apps, "shared");
    s->conflicts = scbd::distribute_budget(s->merged, {}).conflicts;
    const auto [onchip, offchip] = MemoryAllocator::partition_groups(s->merged);
    s->problem = std::make_unique<AssignmentProblem>(s->merged, onchip, s->conflicts,
                                                     s->library, 20'000'000);
    return s;
  }();
  return *shared->problem;
}

/// The memo counters one default solve of `problem` adds to the registry.
struct MemoCounts {
  std::uint64_t lookups = 0;
  std::uint64_t misses = 0;
};

MemoCounts memo_counts_of_solve(const AssignmentProblem& problem, int memories,
                                const SolverOptions& options) {
  auto& registry = obs::TelemetryRegistry::global();
  auto& lookups = registry.counter("solver.sa.memo_lookups");
  auto& misses = registry.counter("solver.sa.memo_misses");
  const MemoCounts before{lookups.value(), misses.value()};
  const auto solution = solve_assignment(problem, memories, options);
  EXPECT_TRUE(solution.feasible);
  EXPECT_FALSE(solution.chains.empty()) << "the solve did not anneal";
  return {lookups.value() - before.lookups, misses.value() - before.misses};
}

// The memo earns its keep where the queries spend their time: on the shared
// model it answers at least 70% of the lookups without a model call.
TEST(Solvers, MemoAnswersMostLookupsOnTheSharedModel) {
  const auto& problem = shared_problem();
  ASSERT_EQ(problem.conflict_words(), 1u);
  ASSERT_GT(problem.group_count(), 17u);
  const auto counts = memo_counts_of_solve(problem, 8, {});
  ASSERT_GT(counts.lookups, 100'000u);
  const double hit_ratio =
      1.0 - static_cast<double>(counts.misses) / static_cast<double>(counts.lookups);
  EXPECT_GE(hit_ratio, 0.70) << counts.misses << " misses of " << counts.lookups;
}

// Each chain counts its own memo, so the totals do not depend on how the
// chains are scheduled.
TEST(Solvers, MemoCountsRepeatAcrossParallelism) {
  const auto& problem = shared_problem();
  SolverOptions options;
  options.sa_iterations = 40'000;
  options.sa_parallelism = 1;
  const auto serial = memo_counts_of_solve(problem, 8, options);
  options.sa_parallelism = 4;
  const auto parallel = memo_counts_of_solve(problem, 8, options);
  EXPECT_GT(serial.lookups, serial.misses);
  EXPECT_EQ(parallel.lookups, serial.lookups);
  EXPECT_EQ(parallel.misses, serial.misses);
}

TEST(Solvers, StartTemperatureIsAFractionOfStartCostWithFloor) {
  // Proportional to the starting cost...
  EXPECT_DOUBLE_EQ(sa_start_temperature(100.0), 4.0 * 0.02 * 100.0);
  EXPECT_DOUBLE_EQ(sa_start_temperature(200.0), 2.0 * sa_start_temperature(100.0));
  // ...and floored at cost 1 so near-zero starts still move.
  EXPECT_DOUBLE_EQ(sa_start_temperature(0.25), 4.0 * 0.02);
}

/// One acceptance decision and whether it drew u.
struct Decision {
  bool accept = false;
  int draws = 0;
  friend bool operator==(const Decision&, const Decision&) = default;
};

/// The plain rule the solver's decision must reproduce.
Decision plain_rule(double delta, double temperature, double u) {
  if (delta <= 0.0) return {true, 0};
  return {u < std::exp(-delta / std::max(temperature, 1e-9)), 1};
}

Decision filtered_rule(double estimate, double slack, double temperature, double delta,
                       double u) {
  Decision decision;
  decision.accept = metropolis_accept(
      estimate, slack, temperature,
      [&] {
        ++decision.draws;
        return u;
      },
      [&] { return delta; });
  return decision;
}

/// Checks the decision for the exact `delta` from the estimate `delta + off`
/// at every slack from |off| up (the contract: |delta - estimate| <= slack).
void expect_same_decision(double delta, double off, double temperature, double u) {
  const double estimate = delta + off;
  // Round the slack up so it covers the real distance even when the
  // subtraction below rounds down.
  const double gap = std::nextafter(std::abs(estimate - delta),
                                    std::numeric_limits<double>::infinity());
  const Decision expected = plain_rule(delta, temperature, u);
  for (const double slack : {gap, 2 * gap, gap + 1e-12 * std::abs(delta)}) {
    ASSERT_EQ(filtered_rule(estimate, slack, temperature, delta, u), expected)
        << std::hexfloat << "delta " << delta << " estimate " << estimate << " slack "
        << slack << " T " << temperature << " u " << u;
  }
}

// `metropolis_accept` decides from an estimate where it can and must take
// the plain rule's decision everywhere, drawing u on exactly the same inputs.
TEST(Solvers, MetropolisDecisionMatchesPlainRule) {
  const double below_one = std::nextafter(1.0, 0.0);
  // u one ulp either side of exp(x), over the whole range of x.
  for (const double temperature : {1e-9, 1e-3, 1.0, 37.5, 1e6}) {
    for (const double x : {-1e-300, -1e-12, -1e-6, -0.01, -0.5, -1.0, -1.5, -2.0, -20.0,
                           -700.0, -744.0, -746.0, -800.0}) {
      const double delta = -x * temperature;
      const double e = std::exp(-delta / std::max(temperature, 1e-9));
      for (const double u : {std::nextafter(e, 0.0), e, std::nextafter(e, 1.0), 0.0,
                             std::numeric_limits<double>::denorm_min(), below_one}) {
        if (u >= 1.0) continue;
        for (const double off : {0.0, 1e-15 * delta, -1e-15 * delta, 1e-9 * delta}) {
          expect_same_decision(delta, off, temperature, u);
        }
      }
    }
  }
  // Exact delta 0 with estimates at ±slack, and ±denormal deltas estimated
  // as 0 (the slack then covers them exactly).
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const double slack : {0.0, tiny, 1e-300, 1e-12, 1.0}) {
    for (const double u : {0.0, 0.5, below_one}) {
      for (const double delta : {0.0, -0.0}) {
        for (const double estimate : {slack, -slack, 0.0}) {
          EXPECT_EQ(filtered_rule(estimate, slack, 1.0, delta, u), plain_rule(delta, 1.0, u))
              << "delta " << delta << " estimate " << estimate << " slack " << slack;
        }
      }
      if (slack < tiny) continue;
      for (const double delta : {tiny, -tiny}) {
        EXPECT_EQ(filtered_rule(0.0, slack, 1.0, delta, u), plain_rule(delta, 1.0, u))
            << "delta " << delta << " slack " << slack;
      }
    }
  }
  // The 1e-9 floor: a zero, negative or tiny temperature prices like 1e-9.
  for (const double temperature : {0.0, -1.0, 1e-12, 1e-9, std::nextafter(1e-9, 1.0)}) {
    for (const double delta : {1e-12, 5e-10, 1e-9, 3e-9, 1e-6}) {
      for (const double u : {0.0, 0.3, 0.36787944117144233, 0.9}) {
        expect_same_decision(delta, 0.0, temperature, u);
        expect_same_decision(delta, 1e-3 * delta, temperature, u);
      }
    }
  }
  // Seeded random cases: log-uniform deltas and temperatures, estimates
  // anywhere within the slack, u uniform or placed near exp(x).
  support::Rng rng(2024);
  for (int i = 0; i < 1'000'000; ++i) {
    const double magnitude = std::pow(10.0, rng.uniform(-12.0, 6.0));
    const double delta = rng.below(8) == 0 ? 0.0 : (rng.below(3) == 0 ? -1 : 1) * magnitude;
    const double temperature = rng.below(16) == 0 ? 1e-9 * rng.uniform()
                                                  : std::pow(10.0, rng.uniform(-9.0, 6.0));
    const double relative = std::pow(10.0, rng.uniform(-16.0, -1.0));
    const double off = rng.uniform(-1.0, 1.0) * relative * std::max(magnitude, 1e-12);
    double u = rng.uniform();
    if (rng.below(2) == 0) {
      const double e = std::exp(-delta / std::max(temperature, 1e-9));
      u = std::min(below_one, std::max(0.0, e * (1.0 + rng.uniform(-1e-9, 1e-9))));
    }
    expect_same_decision(delta, off, temperature, u);
    if (::testing::Test::HasFatalFailure()) return;
  }
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
// on the solver's answer through every cost path (both member-set widths and
// the full recost), move for move.
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
  const auto one =
      oracle::anneal_greedy_chain<OneWordAssignmentState>(problem, 4, options);
  const auto fast = oracle::anneal_greedy_chain<AssignmentState>(problem, 4, options);
  const auto full = oracle::anneal_greedy_chain<oracle::FullRecostState>(problem, 4, options);
  ASSERT_TRUE(solution.feasible);
  for (const auto* run : {&one, &fast, &full}) {
    EXPECT_EQ(run->best_assignment, solution.assignment);
    EXPECT_EQ(run->best_cost, solution.scalar_cost);
    EXPECT_EQ(run->moves, solution.nodes_explored);
    EXPECT_EQ(run->accepted, solution.accepted_moves);
  }
}

// The same replay past 64 groups (three-word memo keys, memo collisions):
// the solver's chain, decided by `metropolis_accept` on memo'd quotes,
// follows the plain rule on full recosts move for move.
TEST(Solvers, ChainReplayMatchesSolverPast64Groups) {
  const Fixture fix = sparse_fixture(150, 53);
  const auto problem = fix.problem();
  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 3000;
  options.sa_chains = 1;
  options.seed = 31;

  const auto solution = solve_assignment(problem, 6, options);
  const auto fast = oracle::anneal_greedy_chain<AssignmentState>(problem, 6, options);
  const auto full = oracle::anneal_greedy_chain<oracle::FullRecostState>(problem, 6, options);
  ASSERT_TRUE(solution.feasible);
  EXPECT_GT(solution.accepted_moves, 100u);
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

  SolverOptions options;
  options.solver = Solver::kSimulatedAnnealing;
  options.sa_iterations = 4000;
  options.sa_chains = 4;
  options.seed = 17;
  const auto a = solve_assignment(problem, 4, options);
  const auto b = solve_assignment(problem, 4, options);
  ASSERT_TRUE(a.feasible);
  // Deterministic per (seed, chain) configuration...
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.scalar_cost, b.scalar_cost);
  // ...at any parallelism...
  options.sa_parallelism = 4;
  const auto parallel = solve_assignment(problem, 4, options);
  EXPECT_EQ(parallel.assignment, a.assignment);
  // ...and chain 0's pure greedy start keeps the best-of from regressing.
  EXPECT_LE(a.scalar_cost, greedy.scalar_cost + 1e-9);
  const auto check = problem.evaluate(a.assignment, 4);
  ASSERT_TRUE(check.has_value());
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
