// Basic-group conflict graph: the bandwidth abstraction between storage
// cycle budget distribution and memory allocation.
//
// An edge (a, b) means accesses to groups a and b were scheduled in the same
// cycle somewhere in the application, so the memory architecture must be able
// to serve both simultaneously: a and b must live in different memories (or
// share a multi-port memory).  A *self-conflict* on a means two accesses to a
// itself were scheduled together, which forces a multi-port memory (or a
// later split of the group).  Edge weights count how often the conflict
// occurs per frame — heavier conflicts matter more to the assignment
// heuristics.  This mirrors the conflict-graph output of flow-graph
// balancing in [Wuytack et al., 1999] / [Slock et al., 1997].
//
// Storage layout: a flat edge store plus one dense (lo, hi) slot matrix that
// answers both `conflicts()` and `conflict_weight()` in O(1).  The
// assignment solvers never query it in their inner loops: the
// `AssignmentProblem` constructor copies the positive-weight conflicts into
// its own bitsets once.  The ordered std::map semantics the first
// implementation had survive only where they are observable: `edges()` and
// `to_string()` present edges sorted by (a, b), independent of insertion
// order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/basic_group.hpp"

namespace dtse::graph {

class ConflictGraph {
 public:
  struct Edge {
    ir::BasicGroupId a;
    ir::BasicGroupId b;  ///< a < b for normal edges, a == b for self-conflicts
    double weight = 0.0;
  };

  /// Accumulates a conflict between `a` and `b` (order-insensitive); use
  /// a == b to record a self-conflict.
  void add_conflict(ir::BasicGroupId a, ir::BasicGroupId b, double weight = 1.0);

  /// Merges all conflicts of `other` into this graph.
  void merge(const ConflictGraph& other);

  /// True when an edge (a, b) was ever added, even with zero weight.
  [[nodiscard]] bool conflicts(ir::BasicGroupId a, ir::BasicGroupId b) const {
    return slot(a, b) >= 0;
  }

  [[nodiscard]] double conflict_weight(ir::BasicGroupId a, ir::BasicGroupId b) const {
    const auto index = slot(a, b);
    return index < 0 ? 0.0 : edges_[static_cast<std::size_t>(index)].weight;
  }

  [[nodiscard]] bool has_self_conflict(ir::BasicGroupId a) const {
    return conflict_weight(a, a) > 0.0;
  }

  [[nodiscard]] double self_conflict_weight(ir::BasicGroupId a) const {
    return conflict_weight(a, a);
  }

  /// All edges, self-conflicts included, sorted by (a, b).
  [[nodiscard]] std::vector<Edge> edges() const;
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] double total_weight() const;

  /// Greedy clique heuristic: a lower bound on the number of single-port
  /// memories needed to honour all pairwise conflicts (self-conflicts not
  /// included — they demand ports, not extra memories).
  [[nodiscard]] int clique_lower_bound() const;

  [[nodiscard]] std::string to_string() const;

 private:
  /// Grows the slot matrix to cover node ids < `nodes`.
  void ensure_capacity(std::size_t nodes);

  /// Edge index of (a, b) in either order, or -1 when there is none.
  [[nodiscard]] std::int32_t slot(ir::BasicGroupId a, ir::BasicGroupId b) const {
    auto lo = a.index();
    auto hi = b.index();
    if (hi < lo) std::swap(lo, hi);
    return hi < capacity_ ? slot_[lo * capacity_ + hi] : -1;
  }

  std::vector<Edge> edges_;            ///< insertion order; queries index into it
  std::vector<std::int32_t> slot_;     ///< capacity_^2 dense (lo, hi) -> edge index
  std::size_t capacity_ = 0;
};

}  // namespace dtse::graph
