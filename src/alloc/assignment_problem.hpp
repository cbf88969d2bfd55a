// The signal-to-memory assignment problem — Section 4.6.
//
// Given the on-chip basic groups, the conflict graph from storage cycle
// budget distribution, and a number of memories N, assign every group to a
// memory such that all bandwidth constraints can be honoured, minimizing the
// technology-model cost.  The cost captures the paper's driving effects:
//
//  * a memory is as wide as its widest group — narrow groups stored next to
//    wide ones waste bits (area) and energy (full-width lines switch),
//  * energy per access is sub-linear in memory size, so distributing groups
//    over more memories reduces power,
//  * every memory pays a fixed periphery overhead, so too many memories
//    cost area,
//  * pairwise-conflicting groups in the same memory force a second port;
//    more than two simultaneous accesses to one memory are infeasible.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/conflict_graph.hpp"
#include "ir/application.hpp"
#include "memlib/memory_library.hpp"

namespace dtse::alloc {

/// One allocated on-chip memory with its assigned groups.
struct MemoryInstance {
  std::vector<ir::BasicGroupId> groups;
  std::uint64_t words = 0;
  int width_bits = 0;
  memlib::PortCount ports = memlib::PortCount::kSingle;
  memlib::MemoryCost cost;
  double power_mw = 0.0;
};

/// Assignment problem instance over a fixed set of on-chip groups.
class AssignmentProblem {
 public:
  /// `groups` lists the on-chip basic groups to place; `frame_cycles` is the
  /// storage budget actually used (converts energy to power).
  AssignmentProblem(const ir::Application& app, std::vector<ir::BasicGroupId> groups,
                    const graph::ConflictGraph& conflicts,
                    const memlib::MemoryLibrary& library, std::uint64_t frame_cycles);

  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] const std::vector<ir::BasicGroupId>& groups() const { return groups_; }
  [[nodiscard]] const ir::Application& app() const { return *app_; }
  [[nodiscard]] const memlib::MemoryLibrary& library() const { return *library_; }
  [[nodiscard]] std::uint64_t frame_cycles() const { return frame_cycles_; }

  /// True when groups i and j (problem-local indices) have a bandwidth
  /// conflict and may not share a single-port memory.
  [[nodiscard]] bool conflicting(std::size_t i, std::size_t j) const;

  /// True when group i needs two ports by itself.
  [[nodiscard]] bool self_conflicting(std::size_t i) const;

  /// Number of simultaneous accesses a member set must sustain, saturated at
  /// three: the size of the biggest pairwise-conflicting clique, counting
  /// self-conflicting members twice.  Because only the 1 / 2 / "more than 2"
  /// distinction matters (the port count of a shared memory; above two the
  /// set is infeasible), the computation is *exact*: it returns 3 iff the
  /// members contain a conflict triangle or a conflicting pair with a
  /// self-conflicting endpoint, 2 iff any conflict or self-conflict exists,
  /// and 1 otherwise.  (An earlier revision grew greedy cliques from each
  /// seed, which could miss a triangle and under-provision ports.)  Shared by
  /// `build_memory` and the incremental cost engine so both cost paths agree
  /// bit-for-bit.
  [[nodiscard]] int simultaneous_accesses(const std::vector<std::size_t>& members) const;

  /// Integer figures of one group, or their sum over a member set (words,
  /// reads and writes add up; the width is the widest member's).
  struct GroupAggregates {
    std::uint64_t words = 0;
    int width_bits = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  /// Cached figures of group i, summed by `build_memory` and maintained per
  /// memory by the incremental cost engine.
  [[nodiscard]] const GroupAggregates& group_aggregates(std::size_t i) const {
    return aggregates_[i];
  }

  /// Area/power term of a non-empty member set given its aggregate and a
  /// port count the caller has already established (`ports` in {1, 2}).
  /// Runs the model calls of `build_memory`, so a cost priced here matches
  /// the built memory bit-for-bit — the entry point for the incremental cost
  /// engine, which keeps each memory's aggregate and port count up to date
  /// per move.
  [[nodiscard]] memlib::CostTerm aggregate_cost_term(const GroupAggregates& sum,
                                                     int ports) const;

  // --- conflict bitsets (problem-local indices, 64 groups per word) --------
  /// Words per adjacency row; all bitsets below share this pitch.
  [[nodiscard]] std::size_t conflict_words() const { return conflict_words_; }
  /// Adjacency row of group i (bit j set iff i and j conflict).
  [[nodiscard]] const std::uint64_t* conflict_row(std::size_t i) const {
    return conflict_bits_.data() + i * conflict_words_;
  }
  /// Self-conflict bits over all groups.
  [[nodiscard]] const std::uint64_t* self_conflict_bits() const {
    return self_bits_.data();
  }

  /// Builds the physical memory for a set of member groups; returns nullopt
  /// when the members need more than two simultaneous ports (infeasible).
  [[nodiscard]] std::optional<MemoryInstance> build_memory(
      const std::vector<std::size_t>& members) const;

  /// Area/power contribution of a member set — the cost of the memory
  /// `build_memory` would build, without materializing the instance.  Both
  /// run the same aggregation over the same cached per-group figures and the
  /// same model calls, so the incremental cost engine (`AssignmentState`)
  /// and a from-scratch `evaluate` agree bit-for-bit by construction.
  /// nullopt when the set needs more than two ports.
  [[nodiscard]] std::optional<memlib::CostTerm> cost_of_members(
      const std::vector<std::size_t>& members) const;

  /// Area + power of a complete assignment (assignment[i] in [0, N));
  /// nullopt when any memory is infeasible.
  [[nodiscard]] std::optional<memlib::CostSummary> evaluate(
      const std::vector<int>& assignment, int memory_count) const;

  /// Lower bound on the number of memories any feasible assignment needs.
  [[nodiscard]] int min_memories() const;

 private:
  /// Sums of the members' cached figures.
  [[nodiscard]] GroupAggregates aggregate_members(
      const std::vector<std::size_t>& members) const;

  [[nodiscard]] bool test_bit(const std::uint64_t* bits, std::size_t i) const {
    return (bits[i / 64] >> (i % 64)) & 1u;
  }

  const ir::Application* app_;
  std::vector<ir::BasicGroupId> groups_;
  const memlib::MemoryLibrary* library_;
  std::uint64_t frame_cycles_;
  std::size_t conflict_words_ = 0;            ///< bitset row pitch in words
  std::vector<std::uint64_t> conflict_bits_;  ///< n adjacency rows of conflict_words_
  std::vector<std::uint64_t> self_bits_;
  /// Per-group figures cached at construction (the access totals walk every
  /// loop body, far too slow to redo per candidate memory).
  std::vector<GroupAggregates> aggregates_;
};

}  // namespace dtse::alloc
