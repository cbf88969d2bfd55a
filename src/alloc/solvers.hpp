// Solvers for the signal-to-memory assignment problem.
//
// Three strategies with different quality/run-time trade-offs:
//  * exact branch-and-bound with symmetry breaking (optimal, exponential;
//    `Solver::kAuto` picks it up to a fixed group limit of 17), seeded with
//    the greedy solution and bounded by the unplaced groups' ideal power and
//    cell area; it returns the first minimal-cost leaf in its search order,
//  * greedy constructive (fast seed / large instances),
//  * simulated annealing: independent chains from greedy and perturbed-greedy
//    starts, each cooling geometrically from a fixed fraction of its start
//    cost (near-optimal on large instances, deterministic under a fixed seed).
//    A chain prices its moves through the incremental cost engine
//    (alloc/incremental_cost.hpp) at the member-set width the solve picks
//    once: one 64-bit word up to 64 groups (every shipped model), the
//    multi-word bitset beyond.  Both widths take the same decisions, so the
//    width changes only the speed.  Besides moves, accepts and exact prices,
//    a run adds its chains' memo lookups and misses to the telemetry
//    counters `solver.sa.memo_lookups` and `solver.sa.memo_misses`.
//
// The paper's assignment tool "finds the optimal assignment based on cost
// models specific for the target memory technology"; branch-and-bound is the
// reference solver, the others exist for scalability and for the ablation
// benchmark comparing solver quality.
#pragma once

#include <algorithm>
#include <cmath>
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

struct SolverOptions {
  Solver solver = Solver::kAuto;
  memlib::CostWeights weights;
  std::uint64_t seed = 1;
  /// Total annealing move budget, split evenly across the chains.  10x the
  /// pre-incremental default: the incremental cost engine re-costs only the
  /// two memories a move touches, so the larger budget stays near the wall
  /// time of 50k full recosts.
  int sa_iterations = 500000;
  /// Independent annealing chains with distinct RNG streams, each running
  /// sa_iterations / sa_chains moves; the best chain wins.  Chain 0 starts
  /// from the greedy solution, so the best-of never loses to greedy; every
  /// other chain starts from greedy plus a burst of random feasible moves
  /// drawn from its own RNG stream.  Deterministic for a fixed (seed,
  /// sa_chains) regardless of `sa_parallelism`.
  int sa_chains = 4;
  /// Worker threads for the chains (0 = hardware concurrency).  Defaults to
  /// serial because the exploration sweeps already parallelize across sweep
  /// points; only affects wall time, never the result.
  unsigned sa_parallelism = 1;
  /// Cooperative cancellation (not owned; may be null).  Every solver polls
  /// it at a coarse stride — annealing chains every few hundred moves, B&B
  /// every few thousand nodes, greedy per group — and returns its best
  /// solution so far when it fires.  A cancelled run is still feasible when
  /// the partial search found any feasible assignment (for B&B, its greedy
  /// incumbent counts); only determinism *across different cancellation
  /// times* is given up, never within one.
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
};

/// Per-chain annealing telemetry: totals plus the sampled convergence
/// series.  Surfaced through `AssignmentSolution::chains` so drivers (the
/// obs/ run report, tests) can ask "why did chain 3 converge late" without
/// re-running the solver.
struct ChainStats {
  std::uint64_t moves = 0;     ///< proposed moves (excluding same-memory no-ops)
  std::uint64_t accepted = 0;  ///< moves that were kept
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
  /// SA only: per-chain stats and convergence series, chain index order
  /// (empty for B&B/greedy solves).
  std::vector<ChainStats> chains;
};

/// Initial annealing temperature for a chain starting at `start_cost`: a few
/// percent of the starting cost, so early moves can escape the greedy basin
/// without degenerating into a random walk.  Exposed for tests.
[[nodiscard]] double sa_start_temperature(double start_cost);

/// The annealing acceptance rule `delta <= 0 || u < exp(-delta / max(T, 1e-9))`,
/// decided from `estimate` where it can be (the exact delta lies within
/// `slack` of it).  Takes the plain rule's decision on every input, calls
/// `draw_uniform()` exactly when the exact delta is > 0, and calls
/// `exact_delta()` only when the estimate cannot decide: |estimate| > slack
/// fixes the sign, and for x = -delta / T the bracket 1 + x <= e^x <=
/// 1 / (1 - x) over the delta interval, with a relative margin of 1e-12
/// (covering its own roundings and any libm exp error below 5e-13), settles
/// u unless u falls inside it.
template <typename DrawUniform, typename ExactDelta>
[[nodiscard]] bool metropolis_accept(double estimate, double slack, double temperature,
                                     DrawUniform&& draw_uniform,
                                     ExactDelta&& exact_delta) {
  constexpr double kMargin = 1e-12;
  const double t = std::max(temperature, 1e-9);
  if (estimate <= -slack) return true;  // exact delta <= 0: accepted, u not drawn
  if (estimate > slack) {               // exact delta > 0: u is drawn
    const double u = draw_uniform();
    const double inverse_t = 1.0 / t;
    // |x| lies in [lo, hi].
    const double lo = (estimate - slack) * inverse_t * (1.0 - kMargin);
    const double hi = (estimate + slack) * inverse_t * (1.0 + kMargin);
    const bool below = u < (1.0 - hi) * (1.0 - kMargin);      // u < 1 + x <= e^x
    const bool above = u * (1.0 + lo) >= 1.0 + kMargin;       // u >= 1 / (1 - x) >= e^x
    if (below || above) return below;
    return u < std::exp(-exact_delta() / t);
  }
  const double delta = exact_delta();
  return delta <= 0.0 || draw_uniform() < std::exp(-delta / t);
}

/// Solves the assignment into exactly `memory_count` memories (empty
/// memories are allowed and simply not built).
[[nodiscard]] AssignmentSolution solve_assignment(const AssignmentProblem& problem,
                                                  int memory_count,
                                                  const SolverOptions& options = {});

}  // namespace dtse::alloc
