// From-scratch reference for the incremental assignment-cost engine.
//
// `FullRecostState` has the move interface of `alloc::AssignmentState` but
// prices every move by scalarizing a complete `AssignmentProblem::evaluate`,
// the definition the incremental engine must reproduce bit-for-bit.  The
// differential tests drive both states through the same move sequence, and
// the `*FullRecost` microbenchmarks time annealing on it to show what the
// incremental engine saves.
//
// `anneal_greedy_chain` replays the solver's first annealing chain (greedy
// start, same RNG stream, schedule and acceptance rule) on either state, so
// the reference can run the solver's exact trajectory without the library
// carrying a second cost path.  A test pins the replay against
// `solve_assignment` with one chain.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "alloc/assignment_problem.hpp"
#include "alloc/solvers.hpp"
#include "memlib/memory_cost.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dtse::alloc::oracle {

class FullRecostState {
 public:
  FullRecostState(const AssignmentProblem& problem, int memory_count,
                  const memlib::CostWeights& weights)
      : problem_(&problem), weights_(weights), memory_count_(memory_count) {}

  bool reset(const std::vector<int>& assignment) {
    assignment_ = assignment;
    active_ = false;
    const auto summary = problem_->evaluate(assignment_, memory_count_);
    if (!summary) return false;
    scalar_ = weights_.scalarize(*summary);
    return true;
  }

  [[nodiscard]] const std::vector<int>& assignment() const { return assignment_; }
  [[nodiscard]] double scalar_cost() const { return scalar_; }

  [[nodiscard]] std::optional<double> apply(std::size_t group, int new_m) {
    const int old_m = assignment_[group];
    assignment_[group] = new_m;
    const auto summary = problem_->evaluate(assignment_, memory_count_);
    if (!summary) {
      assignment_[group] = old_m;
      active_ = false;
      return std::nullopt;
    }
    last_group_ = group;
    last_from_ = old_m;
    last_scalar_ = scalar_;
    active_ = true;
    scalar_ = weights_.scalarize(*summary);
    return scalar_;
  }

  void revert() {
    DTSE_CHECK(active_, "no move to revert");
    active_ = false;
    assignment_[last_group_] = last_from_;
    scalar_ = last_scalar_;
  }

 private:
  const AssignmentProblem* problem_;
  memlib::CostWeights weights_;
  int memory_count_;
  std::vector<int> assignment_;
  double scalar_ = 0.0;
  std::size_t last_group_ = 0;
  int last_from_ = -1;
  double last_scalar_ = 0.0;
  bool active_ = false;
};

struct ChainRun {
  std::vector<int> best_assignment;
  double best_cost = 0.0;
  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
};

/// The solver's chain 0 over `options.sa_iterations` moves (no reheating,
/// no cancellation), priced by `State`.
template <typename State>
ChainRun anneal_greedy_chain(const AssignmentProblem& problem, int memory_count,
                             const SolverOptions& options) {
  SolverOptions greedy_options = options;
  greedy_options.solver = Solver::kGreedy;
  const auto greedy = solve_assignment(problem, memory_count, greedy_options);
  DTSE_CHECK(greedy.feasible, "the replayed chain needs a feasible greedy start");

  State state(problem, memory_count, options.weights);
  const bool ok = state.reset(greedy.assignment);
  DTSE_CHECK(ok, "greedy start must be feasible");
  ChainRun run;
  run.best_assignment = state.assignment();
  run.best_cost = state.scalar_cost();
  double current = run.best_cost;

  const int iterations = options.sa_iterations;
  support::Rng rng(options.seed + 0x9E3779B97F4A7C15ULL);
  double temperature = sa_start_temperature(current, options);
  const double decay = std::pow(1e-3, 1.0 / static_cast<double>(std::max(1, iterations)));
  for (int it = 0; it < iterations; ++it, temperature *= decay) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(static_cast<std::uint64_t>(memory_count)));
    if (new_m == state.assignment()[group]) continue;
    ++run.moves;
    const auto cost = state.apply(group, new_m);
    if (!cost) continue;
    const double delta = *cost - current;
    const bool accept =
        delta <= 0.0 || rng.uniform() < std::exp(-delta / std::max(temperature, 1e-9));
    if (!accept) {
      state.revert();
      continue;
    }
    ++run.accepted;
    current = *cost;
    if (current < run.best_cost) {
      run.best_cost = current;
      run.best_assignment = state.assignment();
    }
  }
  return run;
}

}  // namespace dtse::alloc::oracle
