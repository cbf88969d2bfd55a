#include "alloc/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "alloc/incremental_cost.hpp"
#include "memlib/sram_model.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace dtse::alloc {

namespace {

/// `Solver::kAuto` runs branch-and-bound up to this many groups, annealing
/// beyond.
constexpr std::size_t kBranchAndBoundGroupLimit = 17;

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
    const auto term = problem.cost_of_members({i});
    DTSE_ASSERT(term.has_value(), "single group memory is always feasible");
    result[i] = term->power_mw;
  }
  return result;
}

/// Relative rounding margin: the cell-area remainder shrinks and the greedy seed's
/// cost grows by it, so rounding neither prunes a cheaper leaf nor keeps the seed.
constexpr double kBoundMargin = 1e-9;

AssignmentSolution solve_greedy(const AssignmentProblem& problem, int memory_count,
                                const SolverOptions& options);

/// Branch-and-bound over the groups in `search_order`.  Each memory keeps
/// its member bitset, the running aggregate of its members' figures and a
/// dual-port flag, so a node checks the third-port rule on the bitsets and
/// prices the grown memory from its aggregate: no member list is rescanned.
/// The greedy solution is the first incumbent (a run cancelled before any leaf
/// returns it); the winner is priced by `evaluate`, not by the running sums.
class BranchAndBound {
 public:
  BranchAndBound(const AssignmentProblem& problem, int memory_count,
                 const SolverOptions& options)
      : problem_(problem),
        memory_count_(memory_count),
        options_(options),
        words_(problem.conflict_words()),
        order_(search_order(problem)),
        ideal_power_(ideal_power(problem)) {
    // Suffix sums of the optimistic remainder bounds along the search order.
    power_remainder_.assign(order_.size() + 1, 0.0);
    area_remainder_.assign(order_.size() + 1, 0.0);
    for (std::size_t i = order_.size(); i-- > 0;) {
      const auto& g = problem.group_aggregates(order_[i]);
      const auto cell = memlib::SramModel::cell_area_mm2(static_cast<double>(g.words) *
                                                         g.width_bits);
      power_remainder_[i] = power_remainder_[i + 1] + ideal_power_[order_[i]];
      area_remainder_[i] = area_remainder_[i + 1] + cell;
    }
    for (auto& area : area_remainder_) area *= 1.0 - kBoundMargin;
  }

  AssignmentSolution run() {
    const auto memories = static_cast<std::size_t>(memory_count_);
    bits_.assign(memories * words_, 0);
    memories_.assign(memories, {});
    const auto seed = solve_greedy(problem_, memory_count_, options_);
    best_.scalar_cost = std::numeric_limits<double>::max();
    best_.feasible = seed.feasible;
    if (seed.feasible) {
      best_.assignment = seed.assignment;
      best_.scalar_cost = seed.scalar_cost * (1.0 + kBoundMargin);
    }
    assignment_.assign(problem_.group_count(), -1);
    recurse(0, 0);
    if (best_.feasible) {
      const auto summary = problem_.evaluate(best_.assignment, memory_count_);
      DTSE_ASSERT(summary.has_value(), "branch-and-bound winner must be feasible");
      best_.summary = *summary;
      best_.scalar_cost = options_.weights.scalarize(*summary);
    }
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
  /// One memory of the partial assignment; its member bitset lives in `bits_`.
  struct Memory {
    AssignmentProblem::GroupAggregates sum;
    bool dual = false;  ///< the members need two ports
    memlib::CostTerm term;
  };

  void recurse(std::size_t depth, int used_memories) {
    ++nodes_;
    // Coarse-stride cancellation poll: cheap against the pricing work a
    // node does, fine-grained enough to stop within a few thousand nodes.
    if (cancelled_ ||
        (options_.cancel != nullptr && (nodes_ & 0x3FFu) == 0 &&
         options_.cancel->cancelled())) {
      cancelled_ = true;
      return;
    }
    if (depth == order_.size()) {
      const double scalar = options_.weights.area_weight * area_ +
                            options_.weights.power_weight * power_;
      if (scalar < best_.scalar_cost) {
        best_.scalar_cost = scalar;
        best_.assignment = assignment_;
        best_.feasible = true;
        ++incumbents_;
      }
      return;
    }
    // Admissible bound: committed cost plus the optimistic power and cell
    // area of all unplaced groups (a group adds at least its own bits' cell
    // area to any memory it joins).
    const double bound =
        options_.weights.area_weight * (area_ + area_remainder_[depth]) +
        options_.weights.power_weight * (power_ + power_remainder_[depth]);
    if (bound >= best_.scalar_cost) {
      ++pruned_;
      return;
    }

    const std::size_t group = order_[depth];
    const auto& figures = problem_.group_aggregates(group);
    const std::uint64_t* row = problem_.conflict_row(group);
    const bool self = problem_.self_conflicting(group);
    // Symmetry breaking: a group may open at most one new memory.
    const int try_limit = std::min(memory_count_, used_memories + 1);
    for (int m = 0; m < try_limit; ++m) {
      std::uint64_t* members = bits_.data() + static_cast<std::size_t>(m) * words_;
      if (problem_.insertion_infeasible(members, group)) continue;
      auto& memory = memories_[static_cast<std::size_t>(m)];
      const Memory old = memory;
      std::uint64_t meets = 0;
      for (std::size_t w = 0; w < words_; ++w) meets |= row[w] & members[w];
      memory.sum.words += figures.words;
      memory.sum.width_bits = std::max(memory.sum.width_bits, figures.width_bits);
      memory.sum.reads += figures.reads;
      memory.sum.writes += figures.writes;
      memory.dual = old.dual || self || meets != 0;
      memory.term = problem_.aggregate_cost_term(memory.sum, memory.dual ? 2 : 1);
      area_ += memory.term.area_mm2 - old.term.area_mm2;
      power_ += memory.term.power_mw - old.term.power_mw;
      members[group / 64] |= std::uint64_t{1} << (group % 64);
      assignment_[group] = m;

      recurse(depth + 1, std::max(used_memories, m + 1));

      assignment_[group] = -1;
      members[group / 64] &= ~(std::uint64_t{1} << (group % 64));
      area_ -= memory.term.area_mm2 - old.term.area_mm2;
      power_ -= memory.term.power_mw - old.term.power_mw;
      memory = old;
    }
  }

  const AssignmentProblem& problem_;
  int memory_count_;
  SolverOptions options_;
  std::size_t words_;                ///< bitset words per member set
  std::vector<std::size_t> order_;
  std::vector<double> ideal_power_;
  std::vector<double> power_remainder_;
  std::vector<double> area_remainder_;  ///< cell-area suffix sums, less the margin
  std::vector<std::uint64_t> bits_;  ///< memory m's member bitset at m * words_
  std::vector<Memory> memories_;
  double area_ = 0.0;
  double power_ = 0.0;
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
  std::vector<memlib::CostTerm> terms(static_cast<std::size_t>(memory_count));
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
    memlib::CostTerm best_term;
    const int try_limit = std::min(memory_count, used + 1);
    for (int m = 0; m < try_limit; ++m) {
      auto& mm = members[static_cast<std::size_t>(m)];
      mm.push_back(group);
      const auto term = problem.cost_of_members(mm);
      ++evaluations;
      mm.pop_back();
      if (!term) continue;
      const auto& old = terms[static_cast<std::size_t>(m)];
      const double delta = options.weights.area_weight * (term->area_mm2 - old.area_mm2) +
                           options.weights.power_weight * (term->power_mw - old.power_mw);
      if (delta < best_delta) {
        best_delta = delta;
        best_m = m;
        best_term = *term;
      }
    }
    if (best_m < 0) {
      solution.feasible = false;
      solution.nodes_explored = evaluations;
      return solution;  // no feasible placement with this memory count
    }
    members[static_cast<std::size_t>(best_m)].push_back(group);
    terms[static_cast<std::size_t>(best_m)] = best_term;
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
/// from the options seed and the chain index), diversifies its start unless
/// it is chain 0, and prices moves through the incremental cost
/// engine — a move is priced from the memo'd terms of the two memories it
/// touches and decided by `metropolis_accept`; only accepted moves commit.
/// `stats` carries the chain's convergence telemetry (totals plus the
/// iteration-stride-sampled series — deterministic, no wall-clock anywhere).
struct ChainOutcome {
  std::vector<int> best_assignment;
  double best_cost = std::numeric_limits<double>::max();
  ChainStats stats;
  std::uint64_t exact_prices = 0;  ///< moves whose decision needed the exact sum
  std::uint64_t memo_lookups = 0;  ///< the state's memo lookups, start included
  std::uint64_t memo_misses = 0;   ///< the lookups that ran the cost models
};

/// Diversifies `state` away from the greedy start it was reset with: a burst
/// of random feasible moves, kept regardless of cost — enough kicks to leave
/// the greedy basin while staying feasible by construction.  Draws from `rng`
/// only (its own stream), so a chain's start is a pure function of (seed,
/// chain) no matter how chains are scheduled.
template <typename State>
void diversify_start(State& state, const AssignmentProblem& problem, int memory_count,
                     support::Rng& rng) {
  const std::size_t n = problem.group_count();
  const std::size_t kicks = std::max<std::size_t>(2, n / 3);
  std::size_t applied = 0;
  for (std::size_t tries = 0; tries < 8 * kicks && applied < kicks; ++tries) {
    const auto group = static_cast<std::size_t>(rng.below(n));
    const int new_m =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(memory_count)));
    if (new_m == state.assignment()[group]) continue;
    if (state.price(group, new_m)) {
      state.commit();
      ++applied;
    }
  }
}

/// `Words` is the member-set width of the chain's state: 1 up to 64 groups,
/// `kAnyWords` beyond.
template <std::size_t Words>
ChainOutcome anneal_chain(const AssignmentProblem& problem, int memory_count,
                          const SolverOptions& options, const std::vector<int>& start,
                          std::size_t chain, int iterations) {
  BasicAssignmentState<Words> state(problem, memory_count, options.weights);
  const bool ok = state.reset(start);
  DTSE_ASSERT(ok, "annealing start assignment must be feasible");
  if (chain > 0) {
    support::Rng start_rng(options.seed ^ 0xD1B54A32D192ED03ULL * (chain + 1));
    diversify_start(state, problem, memory_count, start_rng);
  }

  ChainOutcome out;
  out.best_assignment = state.assignment();
  // The loop keeps its running figures in locals no lambda captures by
  // reference, so they stay in registers across the state's calls.
  double current = state.scalar_cost();
  double best_cost = current;
  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
  std::uint64_t exact_prices = 0;
  out.stats.start_cost = current;

  support::Rng rng(options.seed + 0x9E3779B97F4A7C15ULL * (chain + 1));
  double temperature = sa_start_temperature(current);
  const double decay = std::pow(1e-3, 1.0 / static_cast<double>(std::max(1, iterations)));
  const std::size_t groups = problem.group_count();

  // Convergence sampling: a fixed iteration stride (~64 samples per chain),
  // so the series is a pure function of (seed, chain, iterations) — never of
  // wall-clock or scheduling.
  const int stride = std::max(1, iterations / 64);
  int next_sample = 0;
  auto& convergence = out.stats.convergence;
  const auto sample = [&convergence](int it, double temperature, double current,
                                     double best_cost, std::uint64_t accepted) {
    convergence.push_back({it, temperature, current, best_cost, accepted});
  };

  int completed = 0;
  for (int it = 0; it < iterations; ++it, temperature *= decay) {
    // Poll every 512 moves: the chain stops with its best-so-far, which can
    // never be worse than the start it was given.
    if (options.cancel != nullptr && (it & 0x1FF) == 0 && options.cancel->cancelled()) {
      break;
    }
    if (it == next_sample) {  // it % stride == 0, without a division per move
      sample(it, temperature, current, best_cost, accepted);
      next_sample += stride;
    }
    completed = it + 1;
    const auto group = static_cast<std::size_t>(rng.below(groups));
    const int new_m =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(memory_count)));
    if (new_m == state.assignment()[group]) continue;
    ++moves;
    const auto quote = state.price(group, new_m);
    if (!quote) continue;  // needs a third port
    const bool accept = metropolis_accept(
        quote->estimate - current, quote->slack, temperature,
        [&] { return rng.uniform(); },
        [&] {
          ++exact_prices;
          return state.exact_price() - current;
        });
    if (!accept) continue;  // an uncommitted price leaves the state as it was
    state.commit();
    ++accepted;
    current = state.scalar_cost();
    if (current < best_cost) {
      best_cost = current;
      out.best_assignment = state.assignment();
    }
  }
  // Closing sample, so the series always ends at the final state.
  sample(completed, temperature, current, best_cost, accepted);
  out.best_cost = best_cost;
  out.stats.best_cost = best_cost;
  out.stats.moves = moves;
  out.stats.accepted = accepted;
  out.exact_prices = exact_prices;
  out.memo_lookups = state.memo_lookups();
  out.memo_misses = state.memo_misses();
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

  // Multi-chain restarts: independent chains with distinct RNG streams
  // (chain 0 from the greedy solution, the others diversified).  Each chain
  // writes its own slot, and the winner is picked by a serial scan with
  // strict improvement (ties resolve to the lowest chain index), so the
  // result is deterministic for a fixed (seed, sa_chains) no matter how the
  // chains are scheduled.
  // The move budget is a total: more chains means more restarts, not more
  // work.  Chains beyond one per budgeted move would each be forced to a
  // minimum length and overshoot the budget, so they are dropped.  Every
  // chain gets the same length so the schedule (and therefore the result)
  // does not depend on scheduling order.
  const auto chains = static_cast<std::size_t>(
      std::clamp(options.sa_chains, 1, std::max(1, options.sa_iterations)));
  const int per_chain = options.sa_iterations / static_cast<int>(chains);
  // The member-set width is picked once per solve: one word covers every
  // problem of up to 64 groups.
  const auto run_chain =
      problem.conflict_words() == 1 ? &anneal_chain<1> : &anneal_chain<kAnyWords>;
  std::vector<ChainOutcome> outcomes(chains);
  support::parallel_for(chains, options.sa_parallelism, [&](std::size_t c) {
    outcomes[c] =
        run_chain(problem, memory_count, options, start.assignment, c, per_chain);
  });

  AssignmentSolution best = start;
  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
  std::uint64_t exact_prices = 0;
  std::uint64_t memo_lookups = 0;
  std::uint64_t memo_misses = 0;
  const ChainOutcome* winner = nullptr;
  double winning_cost = start.scalar_cost;
  for (const auto& outcome : outcomes) {
    moves += outcome.stats.moves;
    accepted += outcome.stats.accepted;
    exact_prices += outcome.exact_prices;
    memo_lookups += outcome.memo_lookups;
    memo_misses += outcome.memo_misses;
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
  best.chains.reserve(chains);
  for (auto& outcome : outcomes) best.chains.push_back(std::move(outcome.stats));

  auto& registry = obs::TelemetryRegistry::global();
  registry.counter("solver.sa.runs").add(1);
  registry.counter("solver.sa.moves").add(moves);
  registry.counter("solver.sa.accepted").add(accepted);
  registry.counter("solver.sa.exact_prices").add(exact_prices);
  registry.counter("solver.sa.memo_lookups").add(memo_lookups);
  registry.counter("solver.sa.memo_misses").add(memo_misses);
  for (const auto& chain : best.chains) {
    registry.histogram("solver.sa.chain_accepted").observe(chain.accepted);
  }
  return best;
}

}  // namespace

double sa_start_temperature(double start_cost) {
  // A few percent of the starting cost, decayed geometrically by the chain.
  return 4.0 * 0.02 * std::max(start_cost, 1.0);
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
    solver = problem.group_count() <= kBranchAndBoundGroupLimit
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
