// Solvers for the signal-to-memory assignment problem.
//
// Three strategies with different quality/run-time trade-offs:
//  * exact branch-and-bound with symmetry breaking (optimal, exponential —
//    fine up to ~15 groups, which covers the BTPC demonstrator),
//  * greedy constructive (fast seed / large instances),
//  * simulated annealing starting from the greedy solution (near-optimal on
//    large instances, deterministic under a fixed seed).
//
// The paper's assignment tool "finds the optimal assignment based on cost
// models specific for the target memory technology"; branch-and-bound is the
// reference solver, the others exist for scalability and for the ablation
// benchmark comparing solver quality.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alloc/assignment_problem.hpp"
#include "memlib/memory_cost.hpp"
#include "support/cancellation.hpp"

namespace dtse::alloc {

enum class Solver { kBranchAndBound, kGreedy, kSimulatedAnnealing, kAuto };

[[nodiscard]] constexpr const char* to_string(Solver solver) {
  switch (solver) {
    case Solver::kBranchAndBound: return "branch-and-bound";
    case Solver::kGreedy: return "greedy";
    case Solver::kSimulatedAnnealing: return "simulated-annealing";
    case Solver::kAuto: return "auto";
  }
  return "?";
}

/// Where each annealing chain starts.  Chain 0 always starts from the plain
/// greedy solution, so the multi-chain best-of never loses to greedy; the
/// other chains diversify per this knob.  Start derivation draws from its own
/// RNG stream keyed on (seed, chain), so results are deterministic for a
/// fixed configuration at any parallelism.
enum class SaStart {
  kGreedy,           ///< every chain restarts from the identical greedy solution
  kPerturbedGreedy,  ///< greedy plus a burst of random feasible moves per chain
  kRandomFeasible,   ///< an independent random feasible assignment per chain
};

[[nodiscard]] constexpr const char* to_string(SaStart start) {
  switch (start) {
    case SaStart::kGreedy: return "greedy";
    case SaStart::kPerturbedGreedy: return "perturbed-greedy";
    case SaStart::kRandomFeasible: return "random-feasible";
  }
  return "?";
}

struct SolverOptions {
  Solver solver = Solver::kAuto;
  memlib::CostWeights weights;
  std::uint64_t seed = 1;
  int bb_group_limit = 17;       ///< auto: use B&B up to this many groups
  /// Total annealing move budget, split evenly across the chains.  10x the
  /// pre-incremental default: the incremental cost engine re-costs only the
  /// two memories a move touches, so the larger budget stays near the wall
  /// time of 50k full recosts.
  int sa_iterations = 500000;
  double sa_initial_temperature = 4.0;  ///< relative to the greedy cost
  /// Independent annealing chains with distinct RNG streams, each running
  /// sa_iterations / sa_chains moves; the best chain wins.  Deterministic
  /// for a fixed (seed, sa_chains, sa_start) regardless of `sa_parallelism`.
  int sa_chains = 4;
  /// Chain start diversification (chain 0 always stays pure greedy).
  SaStart sa_start = SaStart::kPerturbedGreedy;
  /// Reheating schedule: after this many consecutive iterations without an
  /// accepted move the chain's temperature is reset to its start value, so a
  /// frozen chain can climb out of a local basin instead of idling through
  /// the rest of its budget.  0 disables reheating (the default — identical
  /// trajectories to the pre-reheat solver).  Deterministic per (seed,
  /// chain): the stagnation counter consumes no randomness.
  int sa_reheat_stagnation = 0;
  /// Worker threads for the chains (0 = hardware concurrency).  Defaults to
  /// serial because the exploration sweeps already parallelize across sweep
  /// points; only affects wall time, never the result.
  unsigned sa_parallelism = 1;
  /// Cooperative cancellation (not owned; may be null).  Every solver polls
  /// it at a coarse stride — annealing chains every few hundred moves, B&B
  /// every few thousand nodes, greedy per group — and returns its best
  /// solution so far when it fires.  A cancelled run is still feasible when
  /// the partial search found any feasible assignment; only determinism
  /// *across different cancellation times* is given up, never within one.
  const support::CancellationToken* cancel = nullptr;
};

/// One sampled point of an annealing chain's convergence trajectory.  The
/// series is a pure function of (seed, chain, iterations): sampling happens
/// at a fixed iteration stride, never on wall-clock, so traces are
/// bit-identical across reruns and `sa_parallelism` settings.
struct ConvergenceSample {
  int iteration = 0;
  double temperature = 0.0;
  double current_cost = 0.0;
  double best_cost = 0.0;
  std::uint64_t accepted = 0;  ///< cumulative accepted moves at this sample
  std::uint64_t reheats = 0;   ///< cumulative temperature resets at this sample
};

/// Per-chain annealing telemetry: totals plus the sampled convergence
/// series.  Surfaced through `AssignmentSolution::chains` so drivers (the
/// obs/ run report, tests) can ask "why did chain 3 converge late" without
/// re-running the solver.
struct ChainStats {
  std::uint64_t moves = 0;     ///< proposed moves (excluding same-memory no-ops)
  std::uint64_t accepted = 0;  ///< moves that were kept
  std::uint64_t reheats = 0;   ///< temperature resets (sa_reheat_stagnation)
  double start_cost = 0.0;     ///< scalar cost of the (diversified) start
  double best_cost = 0.0;      ///< best scalar cost the chain reached
  std::vector<ConvergenceSample> convergence;
};

struct AssignmentSolution {
  std::vector<int> assignment;   ///< memory index per problem-local group
  memlib::CostSummary summary;   ///< on-chip area/power of the assignment
  double scalar_cost = 0.0;
  bool feasible = false;
  std::uint64_t nodes_explored = 0;  ///< search effort (B&B nodes / SA moves)
  std::uint64_t accepted_moves = 0;  ///< SA only: kept moves across all chains
  std::uint64_t reheats = 0;         ///< SA only: temperature resets across chains
  /// SA only: per-chain stats and convergence series, chain index order
  /// (empty for B&B/greedy solves).
  std::vector<ChainStats> chains;
};

/// Initial annealing temperature for a chain starting at `start_cost`: a few
/// percent of the starting cost, so early moves can escape the greedy basin
/// without degenerating into a random walk.  Exposed for tests.
[[nodiscard]] double sa_start_temperature(double start_cost, const SolverOptions& options);

/// Solves the assignment into exactly `memory_count` memories (empty
/// memories are allowed and simply not built).
[[nodiscard]] AssignmentSolution solve_assignment(const AssignmentProblem& problem,
                                                  int memory_count,
                                                  const SolverOptions& options = {});

}  // namespace dtse::alloc
