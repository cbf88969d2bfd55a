// Analytic on-chip SRAM area/power model.
//
// The paper used a proprietary 0.7um memory module generator with
// vendor-supplied area and power estimation functions.  This model replaces
// it with a CACTI-flavoured analytic formulation that preserves the
// properties the exploration methodology relies on:
//
//  * energy per access grows sub-linearly with capacity (so splitting a
//    memory into smaller ones saves power — Table 4),
//  * every memory instance pays a fixed periphery/decoder overhead (so too
//    many memories cost area — Table 4's U-shape),
//  * a second port roughly doubles cell area and increases access energy
//    (so multi-port solutions are expensive — Tables 2 and 3),
//  * a memory is as wide as the widest signal stored in it, narrower
//    signals waste the upper bits (bitwidth waste — Tables 1 and 4).
//
// The technology constants are fixed and documented in sram_model.cpp; they
// are calibrated for a 0.7um-class process so the BTPC demonstrator lands in
// the paper's magnitude range.
#pragma once

#include <cstdint>

#include "memlib/memory_cost.hpp"

namespace dtse::memlib {

/// Analytic model of a generated on-chip SRAM block.  Stateless: the
/// technology constants live in sram_model.cpp.
class SramModel {
 public:
  /// Cost of one generated SRAM block.  `words` and `width_bits` must be
  /// positive and within generator limits.
  [[nodiscard]] MemoryCost cost(std::uint64_t words, int width_bits, PortCount ports) const;
};

}  // namespace dtse::memlib
