// Memory Access Critical Path (MACP) analysis — Section 4.2 of the paper.
//
// The minimal chain of dependent memory accesses limits how fast the
// application can run no matter how much memory bandwidth is provisioned.
// This pass computes, per loop body, the longest dependency chain weighted
// by access latency, and aggregates it over the iteration counts into the
// application-level MACP.  Comparing the MACP against the storage cycle
// budget tells the designer whether global loop/data-flow transformations
// are required before physical memory management can succeed.
//
// Before an allocation exists, every access is priced by where its group is
// presumed to live.  This header owns that placement rule and its threshold;
// budget distribution and the allocator's on/off-chip split use the same
// rule, so the whole pricing recipe agrees on which groups are off-chip.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/application.hpp"

namespace dtse::graph {

/// Groups of at least this many words are presumed to live off-chip.  The
/// one placement threshold of the pricing recipe: MACP latencies, the
/// scheduler's conflict penalties and the allocator's on/off-chip split all
/// read it through `presumed_offchip`.
inline constexpr std::uint64_t kOffchipThresholdWords = 64 * 1024;

/// Access latencies, in cycles, assumed before the actual allocation exists.
inline constexpr double kOnchipAccessCycles = 1.0;
inline constexpr double kOffchipAccessCycles = 2.0;

/// The on/off-chip placement rule: a forced location wins, otherwise a
/// group of at least `kOffchipThresholdWords` words goes off-chip.
[[nodiscard]] bool presumed_offchip(const ir::BasicGroup& group);

/// Latency of one access to `group` under the placement rule.
[[nodiscard]] inline double access_latency(const ir::BasicGroup& group) {
  return presumed_offchip(group) ? kOffchipAccessCycles : kOnchipAccessCycles;
}

/// Critical path of one loop body.
struct BodyCriticalPath {
  ir::LoopBodyId body;
  std::string name;
  double path_cycles = 0.0;        ///< longest chain within one iteration
  double total_cycles = 0.0;       ///< path_cycles * iterations
  double access_cycles = 0.0;      ///< serial execution time of all accesses
};

/// Application-level MACP report.
struct MacpReport {
  std::vector<BodyCriticalPath> bodies;
  double macp_cycles = 0.0;        ///< sum over bodies of total_cycles
  double serial_cycles = 0.0;      ///< all accesses fully serialized
  ir::LoopBodyId bottleneck;       ///< body with the largest total_cycles

  /// Achievable speed-up over fully serial memory access (>= 1).
  [[nodiscard]] double parallelism_headroom() const {
    return macp_cycles > 0.0 ? serial_cycles / macp_cycles : 1.0;
  }

  /// True when the real-time budget is achievable at all.
  [[nodiscard]] bool feasible_within(double budget_cycles) const {
    return macp_cycles <= budget_cycles;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Computes the MACP of `app` under `access_latency`.  Throws ContractError
/// if any loop body has cyclic dependencies.
[[nodiscard]] MacpReport analyze_macp(const ir::Application& app);

}  // namespace dtse::graph
