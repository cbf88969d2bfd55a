#include "alloc/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "alloc/incremental_cost.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace dtse::alloc {

namespace {

/// Groups ordered for the constructive searches: high conflict degree and
/// large footprint first — the classic "most constrained first" rule.
std::vector<std::size_t> search_order(const AssignmentProblem& problem) {
  const std::size_t n = problem.group_count();
  std::vector<std::size_t> degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && problem.conflicting(i, j)) ++degree[i];
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (degree[a] != degree[b]) return degree[a] > degree[b];
    const auto& ga = problem.app().group(problem.groups()[a]);
    const auto& gb = problem.app().group(problem.groups()[b]);
    if (ga.bits() != gb.bits()) return ga.bits() > gb.bits();
    return a < b;
  });
  return order;
}

/// Per-group optimistic power: the group alone in its ideally sized memory.
/// Any real placement costs at least this much, making it a valid admissible
/// remainder bound for branch-and-bound.
std::vector<double> ideal_power(const AssignmentProblem& problem) {
  std::vector<double> result(problem.group_count());
  for (std::size_t i = 0; i < problem.group_count(); ++i) {
    const auto mem = problem.build_memory({i});
    DTSE_ASSERT(mem.has_value(), "single group memory is always feasible");
    result[i] = mem->power_mw;
  }
  return result;
}

struct SearchState {
  std::vector<std::vector<std::size_t>> members;   ///< per memory
  std::vector<double> memory_area;                 ///< per memory, mm^2
  std::vector<double> memory_power;                ///< per memory, mW
  double area = 0.0;
  double power = 0.0;
};

class BranchAndBound {
 public:
  BranchAndBound(const AssignmentProblem& problem, int memory_count,
                 const SolverOptions& options)
      : problem_(problem),
        memory_count_(memory_count),
        options_(options),
        order_(search_order(problem)),
        ideal_power_(ideal_power(problem)) {
    // Suffix sums of the optimistic remainder bound along the search order.
    remainder_.assign(order_.size() + 1, 0.0);
    for (std::size_t i = order_.size(); i-- > 0;) {
      remainder_[i] = remainder_[i + 1] + ideal_power_[order_[i]];
    }
  }

  AssignmentSolution run() {
    state_.members.assign(static_cast<std::size_t>(memory_count_), {});
    state_.memory_area.assign(static_cast<std::size_t>(memory_count_), 0.0);
    state_.memory_power.assign(static_cast<std::size_t>(memory_count_), 0.0);
    best_.scalar_cost = std::numeric_limits<double>::max();
    best_.feasible = false;
    assignment_.assign(problem_.group_count(), -1);
    recurse(0, 0);
    best_.nodes_explored = nodes_;
    // Search-shape telemetry: totals only, bumped once per run — all three
    // are pure functions of (problem, memory_count, weights), so the
    // registry stays deterministic at any sweep parallelism.
    auto& registry = obs::TelemetryRegistry::global();
    registry.counter("solver.bb.runs").add(1);
    registry.counter("solver.bb.nodes").add(nodes_);
    registry.counter("solver.bb.pruned").add(pruned_);
    registry.counter("solver.bb.incumbents").add(incumbents_);
    return best_;
  }

 private:
  void recurse(std::size_t depth, int used_memories) {
    ++nodes_;
    // Coarse-stride cancellation poll: cheap against the build_memory work a
    // node does, fine-grained enough to stop within a few thousand nodes.
    if (cancelled_ ||
        (options_.cancel != nullptr && (nodes_ & 0x3FFu) == 0 &&
         options_.cancel->cancelled())) {
      cancelled_ = true;
      return;
    }
    if (depth == order_.size()) {
      const double scalar = options_.weights.area_weight * state_.area +
                            options_.weights.power_weight * state_.power;
      if (scalar < best_.scalar_cost) {
        best_.scalar_cost = scalar;
        best_.assignment = assignment_;
        best_.summary = {state_.area, state_.power, 0.0};
        best_.feasible = true;
        ++incumbents_;
      }
      return;
    }
    // Admissible bound: committed cost plus the optimistic power of all
    // unplaced groups (their area is not bounded below except by 0).
    const double bound = options_.weights.area_weight * state_.area +
                         options_.weights.power_weight * (state_.power + remainder_[depth]);
    if (bound >= best_.scalar_cost) {
      ++pruned_;
      return;
    }

    const std::size_t group = order_[depth];
    // Symmetry breaking: a group may open at most one new memory.
    const int try_limit = std::min(memory_count_, used_memories + 1);
    for (int m = 0; m < try_limit; ++m) {
      auto& members = state_.members[static_cast<std::size_t>(m)];
      members.push_back(group);
      const auto mem = problem_.build_memory(members);
      if (mem) {
        const double old_area = state_.memory_area[static_cast<std::size_t>(m)];
        const double old_power = state_.memory_power[static_cast<std::size_t>(m)];
        state_.memory_area[static_cast<std::size_t>(m)] = mem->cost.area_mm2;
        state_.memory_power[static_cast<std::size_t>(m)] = mem->power_mw;
        state_.area += mem->cost.area_mm2 - old_area;
        state_.power += mem->power_mw - old_power;
        assignment_[group] = m;

        recurse(depth + 1, std::max(used_memories, m + 1));

        assignment_[group] = -1;
        state_.area -= mem->cost.area_mm2 - old_area;
        state_.power -= mem->power_mw - old_power;
        state_.memory_area[static_cast<std::size_t>(m)] = old_area;
        state_.memory_power[static_cast<std::size_t>(m)] = old_power;
      }
      members.pop_back();
    }
  }

  const AssignmentProblem& problem_;
  int memory_count_;
  SolverOptions options_;
  std::vector<std::size_t> order_;
  std::vector<double> ideal_power_;
  std::vector<double> remainder_;
  SearchState state_;
  std::vector<int> assignment_;
  AssignmentSolution best_;
  std::uint64_t nodes_ = 0;
  std::uint64_t pruned_ = 0;      ///< subtrees cut by the admissible bound
  std::uint64_t incumbents_ = 0;  ///< times the best solution improved
  bool cancelled_ = false;
};

AssignmentSolution solve_greedy(const AssignmentProblem& problem, int memory_count,
                                const SolverOptions& options) {
  AssignmentSolution solution;
  solution.assignment.assign(problem.group_count(), -1);
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(memory_count));
  std::vector<double> mem_area(static_cast<std::size_t>(memory_count), 0.0);
  std::vector<double> mem_power(static_cast<std::size_t>(memory_count), 0.0);
  int used = 0;
  std::uint64_t evaluations = 0;

  for (const auto group : search_order(problem)) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      // A partial constructive assignment is not a solution; report the run
      // as infeasible and let the caller's degradation policy take over.
      solution.feasible = false;
      solution.nodes_explored = evaluations;
      return solution;
    }
    int best_m = -1;
    double best_delta = std::numeric_limits<double>::max();
    double best_area = 0.0;
    double best_power = 0.0;
    const int try_limit = std::min(memory_count, used + 1);
    for (int m = 0; m < try_limit; ++m) {
      auto& mm = members[static_cast<std::size_t>(m)];
      mm.push_back(group);
      const auto mem = problem.build_memory(mm);
      ++evaluations;
      mm.pop_back();
      if (!mem) continue;
      const double delta =
          options.weights.area_weight *
              (mem->cost.area_mm2 - mem_area[static_cast<std::size_t>(m)]) +
          options.weights.power_weight *
              (mem->power_mw - mem_power[static_cast<std::size_t>(m)]);
      if (delta < best_delta) {
        best_delta = delta;
        best_m = m;
        best_area = mem->cost.area_mm2;
        best_power = mem->power_mw;
      }
    }
    if (best_m < 0) {
      solution.feasible = false;
      solution.nodes_explored = evaluations;
      return solution;  // no feasible placement with this memory count
    }
    members[static_cast<std::size_t>(best_m)].push_back(group);
    mem_area[static_cast<std::size_t>(best_m)] = best_area;
    mem_power[static_cast<std::size_t>(best_m)] = best_power;
    solution.assignment[group] = best_m;
    used = std::max(used, best_m + 1);
  }

  const auto summary = problem.evaluate(solution.assignment, memory_count);
  DTSE_ASSERT(summary.has_value(), "greedy produced an infeasible assignment");
  solution.summary = *summary;
  solution.scalar_cost = options.weights.scalarize(*summary);
  solution.feasible = true;
  solution.nodes_explored = evaluations;
  auto& registry = obs::TelemetryRegistry::global();
  registry.counter("solver.greedy.runs").add(1);
  registry.counter("solver.greedy.evaluations").add(evaluations);
  return solution;
}

/// One independent annealing chain.  The chain owns its RNG streams (derived
/// from the options seed and the chain index), derives its start per
/// `SolverOptions::sa_start`, and evaluates moves through the incremental
/// cost engine — a move re-costs only the two memories it touches.
/// `stats` carries the chain's convergence telemetry (totals plus the
/// iteration-stride-sampled series — deterministic, no wall-clock anywhere).
struct ChainOutcome {
  std::vector<int> best_assignment;
  double best_cost = std::numeric_limits<double>::max();
  ChainStats stats;
};

/// Diversifies `state` away from the greedy start it was reset with.  Start
/// derivation draws from `rng` only (its own stream), so a chain's start is a
/// pure function of (seed, chain) no matter how chains are scheduled.
void diversify_start(AssignmentState& state, const AssignmentProblem& problem,
                     int memory_count, const SolverOptions& options,
                     const std::vector<int>& greedy, support::Rng& rng) {
  const std::size_t n = problem.group_count();
  if (options.sa_start == SaStart::kRandomFeasible) {
    std::vector<int> candidate(n);
    for (int attempt = 0; attempt < 32; ++attempt) {
      for (auto& entry : candidate) {
        entry = static_cast<int>(rng.below(static_cast<std::uint64_t>(memory_count)));
      }
      if (state.reset(candidate)) return;
    }
    // Dense conflicts can make random draws hopeless; restore the greedy
    // start (a failed reset leaves the state unusable) and perturb instead.
    const bool ok = state.reset(greedy);
    DTSE_ASSERT(ok, "greedy start must stay feasible");
  }
  // kPerturbedGreedy (and the kRandomFeasible fallback): a burst of random
  // feasible moves, kept regardless of cost — enough kicks to leave the
  // greedy basin while staying feasible by construction.
  const std::size_t kicks = std::max<std::size_t>(2, n / 3);
  std::size_t applied = 0;
  for (std::size_t tries = 0; tries < 8 * kicks && applied < kicks; ++tries) {
    const auto group = static_cast<std::size_t>(rng.below(n));
    const int new_m = static_cast<int>(rng.below(static_cast<std::uint64_t>(memory_count)));
    if (new_m == state.assignment()[group]) continue;
    if (state.apply(group, new_m)) ++applied;
  }
}

ChainOutcome anneal_chain(const AssignmentProblem& problem, int memory_count,
                          const SolverOptions& options, const std::vector<int>& start,
                          std::size_t chain, int iterations) {
  AssignmentState state(problem, memory_count, options.weights);
  const bool ok = state.reset(start);
  DTSE_ASSERT(ok, "annealing start assignment must be feasible");
  if (chain > 0 && options.sa_start != SaStart::kGreedy) {
    support::Rng start_rng(options.seed ^ 0xD1B54A32D192ED03ULL * (chain + 1));
    diversify_start(state, problem, memory_count, options, start, start_rng);
  }

  ChainOutcome out;
  out.best_assignment = state.assignment();
  out.best_cost = state.scalar_cost();
  double current = state.scalar_cost();
  out.stats.start_cost = current;

  support::Rng rng(options.seed + 0x9E3779B97F4A7C15ULL * (chain + 1));
  double temperature = sa_start_temperature(current, options);
  const double decay = std::pow(1e-3, 1.0 / static_cast<double>(std::max(1, iterations)));

  // Convergence sampling: a fixed iteration stride (~64 samples per chain),
  // so the series is a pure function of (seed, chain, iterations) — never of
  // wall-clock or scheduling.
  const int stride = std::max(1, iterations / 64);
  const auto sample = [&](int it) {
    out.stats.convergence.push_back({it, temperature, current, out.best_cost,
                                     out.stats.accepted, out.stats.reheats});
  };

  // Reheating schedule: `stagnant` counts consecutive iterations without an
  // accepted move (rejected, infeasible and no-op proposals alike); reaching
  // the threshold resets the temperature from the *current* cost, so the
  // chain resumes exploring instead of freezing in place.
  const int reheat_after = options.sa_reheat_stagnation;
  int stagnant = 0;
  int completed = 0;
  for (int it = 0; it < iterations; ++it, temperature *= decay) {
    // Poll every 512 moves: the chain stops with its best-so-far, which can
    // never be worse than the start it was given.
    if (options.cancel != nullptr && (it & 0x1FF) == 0 && options.cancel->cancelled()) {
      break;
    }
    if (reheat_after > 0 && stagnant >= reheat_after) {
      temperature = sa_start_temperature(current, options);
      stagnant = 0;
      ++out.stats.reheats;
    }
    if (it % stride == 0) sample(it);
    completed = it + 1;
    ++stagnant;
    const auto group = static_cast<std::size_t>(rng.below(problem.group_count()));
    const int new_m = static_cast<int>(rng.below(static_cast<std::uint64_t>(memory_count)));
    if (new_m == state.assignment()[group]) continue;
    ++out.stats.moves;
    const auto cost = state.apply(group, new_m);
    if (!cost) continue;  // needs a third port; state unchanged
    const double delta = *cost - current;
    const bool accept =
        delta <= 0.0 || rng.uniform() < std::exp(-delta / std::max(temperature, 1e-9));
    if (!accept) {
      state.revert();
      continue;
    }
    ++out.stats.accepted;
    stagnant = 0;
    current = *cost;
    if (current < out.best_cost) {
      out.best_cost = current;
      out.best_assignment = state.assignment();
    }
  }
  sample(completed);  // closing sample so the series always ends at the final state
  out.stats.best_cost = out.best_cost;
  return out;
}

AssignmentSolution solve_annealing(const AssignmentProblem& problem, int memory_count,
                                   const SolverOptions& options) {
  AssignmentSolution start = solve_greedy(problem, memory_count, options);
  if (!start.feasible) {
    // Greedy could not even construct a start; try a trivial spread.
    start.assignment.assign(problem.group_count(), 0);
    for (std::size_t i = 0; i < problem.group_count(); ++i) {
      start.assignment[i] = static_cast<int>(i % static_cast<std::size_t>(memory_count));
    }
    const auto summary = problem.evaluate(start.assignment, memory_count);
    if (!summary) return start;  // genuinely infeasible start
    start.summary = *summary;
    start.scalar_cost = options.weights.scalarize(*summary);
    start.feasible = true;
  }
  if (problem.group_count() == 0 || memory_count < 2) {
    start.nodes_explored = 0;
    return start;  // no move can change anything
  }

  // Multi-chain restarts: independent chains with distinct RNG streams,
  // started per `sa_start` (chain 0 from the greedy solution, the others
  // diversified).  Each chain writes its own slot, and the
  // winner is picked by a serial scan with strict improvement (ties resolve
  // to the lowest chain index), so the result is deterministic for a fixed
  // (seed, sa_chains) no matter how the chains are scheduled.
  // The move budget is a total: more chains means more restarts, not more
  // work.  Chains beyond one per budgeted move would each be forced to a
  // minimum length and overshoot the budget, so they are dropped.  Every
  // chain gets the same length so the schedule (and therefore the result)
  // does not depend on scheduling order.
  const auto chains = static_cast<std::size_t>(
      std::clamp(options.sa_chains, 1, std::max(1, options.sa_iterations)));
  const int per_chain = options.sa_iterations / static_cast<int>(chains);
  std::vector<ChainOutcome> outcomes(chains);
  support::parallel_for(chains, options.sa_parallelism, [&](std::size_t c) {
    outcomes[c] = anneal_chain(problem, memory_count, options, start.assignment, c, per_chain);
  });

  AssignmentSolution best = start;
  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
  std::uint64_t reheats = 0;
  const ChainOutcome* winner = nullptr;
  double winning_cost = start.scalar_cost;
  for (const auto& outcome : outcomes) {
    moves += outcome.stats.moves;
    accepted += outcome.stats.accepted;
    reheats += outcome.stats.reheats;
    if (outcome.best_cost < winning_cost) {
      winning_cost = outcome.best_cost;
      winner = &outcome;
    }
  }
  if (winner != nullptr) {
    best.assignment = winner->best_assignment;
    best.scalar_cost = winner->best_cost;
    const auto summary = problem.evaluate(best.assignment, memory_count);
    DTSE_ASSERT(summary.has_value(), "winning chain assignment must be feasible");
    best.summary = *summary;
  }
  best.nodes_explored = moves;
  best.accepted_moves = accepted;
  best.reheats = reheats;
  best.chains.reserve(chains);
  for (auto& outcome : outcomes) best.chains.push_back(std::move(outcome.stats));

  auto& registry = obs::TelemetryRegistry::global();
  registry.counter("solver.sa.runs").add(1);
  registry.counter("solver.sa.moves").add(moves);
  registry.counter("solver.sa.accepted").add(accepted);
  registry.counter("solver.sa.reheats").add(reheats);
  for (const auto& chain : best.chains) {
    registry.histogram("solver.sa.chain_accepted").observe(chain.accepted);
  }
  return best;
}

}  // namespace

double sa_start_temperature(double start_cost, const SolverOptions& options) {
  // A few percent of the starting cost, decayed geometrically by the chain.
  // (An earlier revision also divided by sa_iterations, which froze long
  // chains from the first move; that dead formula is gone.)
  return options.sa_initial_temperature * 0.02 * std::max(start_cost, 1.0);
}

AssignmentSolution solve_assignment(const AssignmentProblem& problem, int memory_count,
                                    const SolverOptions& options) {
  DTSE_CHECK(memory_count >= 1, "need at least one memory");
  if (problem.group_count() == 0) {
    AssignmentSolution empty;
    empty.feasible = true;
    return empty;
  }

  Solver solver = options.solver;
  if (solver == Solver::kAuto) {
    solver = problem.group_count() <= static_cast<std::size_t>(options.bb_group_limit)
                 ? Solver::kBranchAndBound
                 : Solver::kSimulatedAnnealing;
  }
  switch (solver) {
    case Solver::kBranchAndBound: {
      BranchAndBound bb(problem, memory_count, options);
      return bb.run();
    }
    case Solver::kGreedy:
      return solve_greedy(problem, memory_count, options);
    case Solver::kSimulatedAnnealing:
      return solve_annealing(problem, memory_count, options);
    case Solver::kAuto:
      break;
  }
  DTSE_ASSERT(false, "unreachable solver dispatch");
  return {};
}

}  // namespace dtse::alloc
