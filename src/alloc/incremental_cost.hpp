// Incremental cost engine for the signal-to-memory assignment search.
//
// A simulated-annealing move reassigns ONE group, so only the source and
// destination memories change; every other memory keeps its area and power.
// `AssignmentState` caches one `memlib::CostTerm` per memory plus, per
// memory, a member bitset, conflict/port counts (conflicting pairs and
// self-conflicting members) and the member aggregate the cost models read:
// member count, summed words/reads/writes, and the max width with the number
// of members at that width.  A live memory is feasible, so it holds no
// conflict triangle and no conflicting pair with a self-conflicting
// endpoint; its port count is then fully determined by the two counts
// (any pair or self-conflict => dual-port).  Feasibility and count deltas
// come from bitset intersections with the moved group's adjacency row,
// instead of the O(members^2)-and-worse clique scan of
// `simultaneous_accesses`, and the aggregate updates in O(1): the max width
// is rescanned from the bitset only when its last holder leaves.
//
// Correctness anchor: after any move sequence, `scalar_cost()` equals a
// from-scratch `CostWeights::scalarize(problem.evaluate(assignment))`
// bit-for-bit.  This holds because the maintained port decision provably
// matches `simultaneous_accesses` on feasible sets, the aggregate sums are
// exact integer arithmetic (so they equal `build_memory`'s sums in any
// order), the touched memories are priced through the same
// `aggregate_cost_term` model calls, and the per-memory terms are summed in
// memory-index order, mirroring `evaluate`.  The tests check this against a
// test-side from-scratch oracle and pinned evaluation goldens.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "alloc/assignment_problem.hpp"
#include "memlib/memory_cost.hpp"

namespace dtse::alloc {

/// A complete assignment with incrementally maintained cost, supporting
/// single-group moves with O(1)-memory undo.
class AssignmentState {
 public:
  AssignmentState(const AssignmentProblem& problem, int memory_count,
                  const memlib::CostWeights& weights);

  /// Loads a complete assignment (one entry per group, each in
  /// [0, memory_count)).  Returns false when any memory is infeasible; the
  /// state must then be reset again before use.
  bool reset(const std::vector<int>& assignment);

  [[nodiscard]] const std::vector<int>& assignment() const { return assignment_; }

  /// Scalar objective of the current assignment; identical to scalarizing a
  /// from-scratch `AssignmentProblem::evaluate`.
  [[nodiscard]] double scalar_cost() const { return scalar_; }

  /// On-chip cost aggregate of the current assignment (off-chip channels do
  /// not participate in assignment moves).
  [[nodiscard]] memlib::CostTerm onchip_total() const;

  /// Moves `group` to memory `new_m` (must differ from its current memory)
  /// and returns the new scalar cost, or nullopt when the move would need a
  /// tri-ported memory — the state is then unchanged.  A successful move can
  /// be undone with `revert()`.
  [[nodiscard]] std::optional<double> apply(std::size_t group, int new_m);

  /// Undoes the most recent successful `apply`.
  void revert();

 private:
  struct MemoryState {
    std::vector<std::uint64_t> bits;   ///< member bitset
    std::size_t members = 0;
    AssignmentProblem::GroupAggregates sum;  ///< width_bits: the widest member's
    std::size_t width_holders = 0;     ///< members at that width
    std::uint64_t pair_conflicts = 0;  ///< conflicting pairs inside the memory
    std::uint64_t self_conflicts = 0;  ///< self-conflicting members
    memlib::CostTerm term;

    /// Port count of a feasible member set (no triangles, no self-edges —
    /// the only states this engine keeps): 2 iff any conflict forces it.
    [[nodiscard]] int ports() const {
      return pair_conflicts > 0 || self_conflicts > 0 ? 2 : 1;
    }
  };
  struct LastMove {
    std::size_t group = 0;
    int from = -1;
    int to = -1;
    memlib::CostTerm from_term;
    memlib::CostTerm to_term;
    int from_width = 0;             ///< source width state before the move
    std::size_t from_holders = 0;
    int to_width = 0;               ///< and the destination's
    std::size_t to_holders = 0;
    std::uint64_t degree_from = 0;  ///< group's conflict degree in the source
    std::uint64_t degree_to = 0;    ///< and in the destination
    double scalar = 0.0;
    bool active = false;
  };

  /// Adds `group` to `mem`'s bitset, conflict counts and summed figures
  /// (`degree`: its conflict neighbours there); the width is left to `widen`.
  void add_member(MemoryState& mem, std::size_t group, std::uint64_t degree);
  /// The inverse of `add_member`; the width is left to `narrow`.
  void remove_member(MemoryState& mem, std::size_t group, std::uint64_t degree);
  /// Accounts a member of `width` bits joining `mem`.
  static void widen(MemoryState& mem, int width);
  /// Accounts a member of `width` bits having left `mem`; rescans the
  /// remaining members when it was the last one at the max width.
  void narrow(MemoryState& mem, int width);

  /// Scalar of the cached per-memory terms, summed in memory-index order to
  /// mirror `AssignmentProblem::evaluate` exactly.
  [[nodiscard]] double scalar_from_terms() const;

  /// `group`'s conflict neighbours inside `mem`, written into `scratch_`
  /// (returns the popcount).
  std::uint64_t neighbours_in(const MemoryState& mem, std::size_t group);

  /// True when adding `group` to the memory whose neighbour set sits in
  /// `scratch_` (with popcount `degree`) would need a third port: the group
  /// is self-conflicting and meets any conflict, conflicts with a
  /// self-conflicting member, or closes a conflict triangle.
  [[nodiscard]] bool scratch_insertion_infeasible(std::uint64_t degree,
                                                 std::size_t group) const;

  const AssignmentProblem* problem_;
  memlib::CostWeights weights_;
  int memory_count_;
  std::vector<int> assignment_;
  std::vector<MemoryState> memories_;
  std::vector<std::uint64_t> scratch_;  ///< one bitset row, reused per move
  double scalar_ = 0.0;
  LastMove last_;
};

}  // namespace dtse::alloc
