// Table-driven off-chip DRAM model.
//
// The paper took power figures for the Siemens EDO DRAM series from the
// public data sheets and entered them "into a table for our tools to use".
// We reconstruct an equivalent part catalogue: a set of commodity EDO DRAM
// parts with capacity, data width, access energy and standby power.  Part
// selection picks the cheapest set of parts that provides the requested
// capacity, width and port count; a dual-ported off-chip signal needs two
// interleaved parts plus arbitration, which is what makes the "no memory
// hierarchy" option of Table 2 and the tightest budget of Table 3 expensive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memlib/memory_cost.hpp"

namespace dtse::memlib {

/// One catalogue entry (one orderable DRAM part).
struct DramPart {
  std::string name;
  std::uint64_t words = 0;       ///< addressable words at `width_bits`
  int width_bits = 0;            ///< data bus width
  double access_energy_nj = 0.0; ///< energy per random access (page miss avg.)
  double page_energy_nj = 0.0;   ///< energy per same-page (EDO burst) access
  double standby_power_mw = 0.0; ///< refresh + standby
  double access_time_ns = 0.0;   ///< random access time
};

/// A selected off-chip configuration for one signal or signal group.
struct DramSelection {
  std::vector<DramPart> parts;   ///< parts used (duplicated entries allowed)
  MemoryCost cost;               ///< aggregate cost of the selection
  bool feasible = false;
};

/// Off-chip memory model over a fixed EDO-DRAM-like part catalogue (8- and
/// 16-bit parts, 256Kw..4Mw).
class DramModel {
 public:
  /// Selects the cheapest (by power at the given access rate) combination of
  /// catalogue parts providing `words` x `width_bits` with `ports` ports.
  /// `accesses_per_second` is used to weigh dynamic vs standby power, and
  /// `page_hit_fraction` models EDO page-mode locality in [0,1].
  [[nodiscard]] DramSelection select(std::uint64_t words, int width_bits, PortCount ports,
                                     double accesses_per_second,
                                     double page_hit_fraction = 0.5) const;

  /// Average energy for one access given the page-hit ratio.
  [[nodiscard]] static double effective_access_energy_nj(const DramPart& part,
                                                         double page_hit_fraction);
};

}  // namespace dtse::memlib
