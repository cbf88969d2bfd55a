// Memory allocation driver — the outer loop of Section 4.6.
//
// Splits the basic groups into on-chip and off-chip sets (by the one
// placement rule, `graph::presumed_offchip`), packs the off-chip
// groups into DRAM channels honouring their conflicts, runs the
// signal-to-memory assignment for the on-chip set, and reports the cost
// triple (on-chip area, on-chip power, off-chip power) the paper's tables
// use.  `allocate` prices one on-chip memory count, or with
// `onchip_memories == 0` picks the best count automatically; the Table 4
// memory-count sweep is `core::Explorer::explore_allocation_counts`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/assignment_problem.hpp"
#include "alloc/solvers.hpp"
#include "graph/conflict_graph.hpp"
#include "ir/application.hpp"
#include "memlib/memory_library.hpp"

namespace dtse::alloc {

/// One off-chip DRAM channel: a bus with one or more commodity parts behind
/// it, serving a set of mutually non-conflicting basic groups.
struct OffchipChannel {
  std::vector<ir::BasicGroupId> groups;
  std::uint64_t words = 0;
  int width_bits = 0;
  memlib::PortCount ports = memlib::PortCount::kSingle;
  memlib::DramSelection selection;
  double power_mw = 0.0;
};

struct AllocationOptions {
  int onchip_memories = 0;      ///< exact count; 0 = pick the cheapest
  int max_onchip_memories = 14;
  std::uint64_t frame_cycles = 20'000'000;  ///< storage cycles actually used
  SolverOptions solver;
};

struct AllocationResult {
  std::vector<MemoryInstance> onchip;
  std::vector<OffchipChannel> offchip;
  memlib::CostSummary summary;
  bool feasible = false;
  int requested_memories = 0;   ///< the N that was asked for
  std::uint64_t search_nodes = 0;
  std::uint64_t accepted_moves = 0;  ///< SA only: kept moves across all chains
  /// SA only: the winning solve's per-chain convergence telemetry (empty for
  /// B&B/greedy solves); flows into the obs/ run report.
  std::vector<ChainStats> sa_chains;

  [[nodiscard]] std::string to_string(const ir::Application& app) const;
};

/// The ranking `allocate` applies across memory counts when
/// `onchip_memories == 0`: a feasible candidate beats an infeasible
/// incumbent, and among feasible candidates only a strictly lower scalar cost
/// wins, so the earliest of equal candidates stays.  Every solver prices its
/// result from the assignment alone, so the same assignment found at two
/// counts costs the same and the smaller count is kept.
[[nodiscard]] constexpr bool outranks(bool feasible, double scalar_cost,
                                      bool incumbent_feasible, double incumbent_cost) {
  return feasible && (!incumbent_feasible || scalar_cost < incumbent_cost);
}

class MemoryAllocator {
 public:
  explicit MemoryAllocator(memlib::MemoryLibrary library)
      : library_(std::move(library)) {}

  [[nodiscard]] const memlib::MemoryLibrary& library() const { return library_; }

  /// Full allocation for one memory count (or the best count when
  /// options.onchip_memories == 0).
  [[nodiscard]] AllocationResult allocate(const ir::Application& app,
                                          const graph::ConflictGraph& conflicts,
                                          const AllocationOptions& options = {}) const;

  /// Splits group ids into (on-chip, off-chip) by `graph::presumed_offchip`.
  /// Exposed for tests and reporting.
  [[nodiscard]] static std::pair<std::vector<ir::BasicGroupId>,
                                 std::vector<ir::BasicGroupId>>
  partition_groups(const ir::Application& app);

 private:
  [[nodiscard]] std::vector<OffchipChannel> build_offchip(
      const ir::Application& app, const std::vector<ir::BasicGroupId>& groups,
      const graph::ConflictGraph& conflicts, const AllocationOptions& options) const;

  memlib::MemoryLibrary library_;
};

}  // namespace dtse::alloc
