// Loose reference for branch-and-bound assignment.
//
// `LooseBranchAndBound` is the library's branch-and-bound as first written:
// its bound adds only the unplaced groups' optimistic power to the committed
// cost (their area is bounded below by 0), the search starts with no
// incumbent, and the solution is priced by the running area and power sums
// of the search itself.  The library's `solve_assignment` with
// `Solver::kBranchAndBound` prunes harder, against a greedy incumbent and
// the unplaced groups' cell area; it must return this reference's
// feasibility and assignment on every instance, after visiting no more
// nodes.  Search order, value order and symmetry breaking are the
// library's.  The reference polls no cancellation token and bumps no
// telemetry counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "alloc/assignment_problem.hpp"
#include "alloc/solvers.hpp"
#include "support/check.hpp"

namespace dtse::alloc::oracle {

/// Groups ordered for the constructive searches: high conflict degree and
/// large footprint first — the classic "most constrained first" rule.
inline std::vector<std::size_t> loose_search_order(const AssignmentProblem& problem) {
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
inline std::vector<double> loose_ideal_power(const AssignmentProblem& problem) {
  std::vector<double> result(problem.group_count());
  for (std::size_t i = 0; i < problem.group_count(); ++i) {
    const auto term = problem.cost_of_members({i});
    DTSE_ASSERT(term.has_value(), "single group memory is always feasible");
    result[i] = term->power_mw;
  }
  return result;
}

class LooseBranchAndBound {
 public:
  LooseBranchAndBound(const AssignmentProblem& problem, int memory_count,
                      const SolverOptions& options)
      : problem_(problem),
        memory_count_(memory_count),
        options_(options),
        words_(problem.conflict_words()),
        order_(loose_search_order(problem)),
        ideal_power_(loose_ideal_power(problem)) {
    remainder_.assign(order_.size() + 1, 0.0);
    for (std::size_t i = order_.size(); i-- > 0;) {
      remainder_[i] = remainder_[i + 1] + ideal_power_[order_[i]];
    }
  }

  AssignmentSolution run() {
    const auto memories = static_cast<std::size_t>(memory_count_);
    bits_.assign(memories * words_, 0);
    memories_.assign(memories, {});
    best_.scalar_cost = std::numeric_limits<double>::max();
    best_.feasible = false;
    assignment_.assign(problem_.group_count(), -1);
    recurse(0, 0);
    best_.nodes_explored = nodes_;
    return best_;
  }

 private:
  struct Memory {
    AssignmentProblem::GroupAggregates sum;
    bool dual = false;
    memlib::CostTerm term;
  };

  void recurse(std::size_t depth, int used_memories) {
    ++nodes_;
    if (depth == order_.size()) {
      const double scalar = options_.weights.area_weight * area_ +
                            options_.weights.power_weight * power_;
      if (scalar < best_.scalar_cost) {
        best_.scalar_cost = scalar;
        best_.assignment = assignment_;
        best_.summary = {area_, power_, 0.0};
        best_.feasible = true;
      }
      return;
    }
    const double bound = options_.weights.area_weight * area_ +
                         options_.weights.power_weight * (power_ + remainder_[depth]);
    if (bound >= best_.scalar_cost) return;

    const std::size_t group = order_[depth];
    const auto& figures = problem_.group_aggregates(group);
    const std::uint64_t* row = problem_.conflict_row(group);
    const bool self = problem_.self_conflicting(group);
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
  std::size_t words_;
  std::vector<std::size_t> order_;
  std::vector<double> ideal_power_;
  std::vector<double> remainder_;
  std::vector<std::uint64_t> bits_;
  std::vector<Memory> memories_;
  double area_ = 0.0;
  double power_ = 0.0;
  std::vector<int> assignment_;
  AssignmentSolution best_;
  std::uint64_t nodes_ = 0;
};

/// The loose reference's solve of `problem` into `memory_count` memories.
inline AssignmentSolution loose_branch_and_bound(const AssignmentProblem& problem,
                                                 int memory_count,
                                                 const SolverOptions& options = {}) {
  return LooseBranchAndBound(problem, memory_count, options).run();
}

}  // namespace dtse::alloc::oracle
