// From-scratch reference for the incremental assignment-cost engine.
//
// `FullRecostState` has the price/commit interface of
// `alloc::AssignmentState` but prices every move by scalarizing a complete
// `AssignmentProblem::evaluate` of the moved assignment, the definition the
// incremental engine must reproduce bit-for-bit.  Its quotes are exact
// (slack 0).  The differential tests drive both states through the same
// move sequence, and the `*FullRecost` microbenchmarks time annealing on it
// to show what the incremental engine saves.
//
// `anneal_greedy_chain` replays the solver's first annealing chain (greedy
// start, same RNG stream and schedule) on either state with the plain
// acceptance rule `delta <= 0 || u < exp(-delta / max(T, 1e-9))` on the
// exact delta of every move — the definition `alloc::metropolis_accept`
// must decide identically, drawing u on the same moves.  So the reference
// runs the solver's exact trajectory without the library carrying a second
// cost path or decision rule.  A test pins the replay against
// `solve_assignment` with one chain.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "alloc/assignment_problem.hpp"
#include "alloc/incremental_cost.hpp"
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

  [[nodiscard]] std::optional<AssignmentState::Quote> price(std::size_t group, int to) {
    active_ = false;
    const int from = assignment_[group];
    assignment_[group] = to;
    const auto summary = problem_->evaluate(assignment_, memory_count_);
    assignment_[group] = from;  // a price leaves the state untouched
    if (!summary) return std::nullopt;
    pending_group_ = group;
    pending_to_ = to;
    pending_scalar_ = weights_.scalarize(*summary);
    active_ = true;
    return AssignmentState::Quote{pending_scalar_, 0.0};
  }

  [[nodiscard]] double exact_price() const {
    DTSE_CHECK(active_, "no priced move");
    return pending_scalar_;
  }

  void commit() {
    DTSE_CHECK(active_, "no priced move to commit");
    active_ = false;
    assignment_[pending_group_] = pending_to_;
    scalar_ = pending_scalar_;
  }

 private:
  const AssignmentProblem* problem_;
  memlib::CostWeights weights_;
  int memory_count_;
  std::vector<int> assignment_;
  double scalar_ = 0.0;
  std::size_t pending_group_ = 0;
  int pending_to_ = -1;
  double pending_scalar_ = 0.0;
  bool active_ = false;
};

struct ChainRun {
  std::vector<int> best_assignment;
  double best_cost = 0.0;
  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
};

/// The solver's chain 0 over `options.sa_iterations` moves (no
/// cancellation), priced by `State`.
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
  double temperature = sa_start_temperature(current);
  const double decay = std::pow(1e-3, 1.0 / static_cast<double>(std::max(1, iterations)));
  for (int it = 0; it < iterations; ++it, temperature *= decay) {
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(static_cast<std::uint64_t>(memory_count)));
    if (new_m == state.assignment()[group]) continue;
    ++run.moves;
    if (!state.price(group, new_m)) continue;
    const double delta = state.exact_price() - current;
    const bool accept =
        delta <= 0.0 || rng.uniform() < std::exp(-delta / std::max(temperature, 1e-9));
    if (!accept) continue;
    state.commit();
    ++run.accepted;
    current = state.scalar_cost();
    if (current < run.best_cost) {
      run.best_cost = current;
      run.best_assignment = state.assignment();
    }
  }
  return run;
}

}  // namespace dtse::alloc::oracle
