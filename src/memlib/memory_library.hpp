// Aggregated memory technology library.
//
// Bundles the on-chip SRAM generator model and the off-chip DRAM catalogue
// behind one interface, together with the system timing context needed to
// convert per-frame energies into the power figures reported in the paper.
// The library is fixed: every model, part and clock constant is part of the
// one pricing recipe, so a default-constructed library is the only one.
#pragma once

#include <cstdint>

#include "memlib/dram_model.hpp"
#include "memlib/memory_cost.hpp"
#include "memlib/sram_model.hpp"

namespace dtse::memlib {

/// Average power [mW] of `energy_nj` spent per frame of `frame_seconds` on
/// top of `static_power_mw`: the one formula on- and off-chip power share.
[[nodiscard]] inline double average_power_mw(double energy_nj, double static_power_mw,
                                             double frame_seconds) {
  // nJ / s = nW; convert to mW.
  return energy_nj * 1e-6 / frame_seconds + static_power_mw;
}

/// System timing context.  The BTPC design goal is 1 Mpixel/s on a 1024x1024
/// image, and the storage cycle budget derived from it is ~20M cycles per
/// frame, which corresponds to a fixed 20 MHz memory system clock.
struct ClockSpec {
  static constexpr double frequency_mhz = 20.0;

  [[nodiscard]] double cycle_ns() const { return 1000.0 / frequency_mhz; }

  /// Wall-clock seconds for a number of cycles.
  [[nodiscard]] double seconds(std::uint64_t cycles) const {
    return static_cast<double>(cycles) / (frequency_mhz * 1e6);
  }
};

/// The full memory technology library used by estimation and allocation.
class MemoryLibrary {
 public:
  MemoryLibrary() = default;

  [[nodiscard]] const SramModel& sram() const { return sram_; }
  [[nodiscard]] const DramModel& dram() const { return dram_; }
  [[nodiscard]] const ClockSpec& clock() const { return clock_; }

  /// Average power [mW] of an on-chip memory given per-frame access counts
  /// and a frame of `frame_seconds` (`clock().seconds(frame_cycles)`,
  /// positive): the on-chip power formula.  Callers that price many
  /// memories over one frame convert its cycles once.
  [[nodiscard]] static double onchip_frame_power_mw(const MemoryCost& cost,
                                                    std::uint64_t reads,
                                                    std::uint64_t writes,
                                                    double frame_seconds) {
    return average_power_mw(cost.access_energy_nj(reads, writes), cost.static_power_mw,
                            frame_seconds);
  }

  /// Average power [mW] of an off-chip selection under the same conditions.
  [[nodiscard]] double offchip_power_mw(const DramSelection& selection,
                                        std::uint64_t reads, std::uint64_t writes,
                                        std::uint64_t frame_cycles) const;

 private:
  SramModel sram_;
  DramModel dram_;
  ClockSpec clock_;
};

}  // namespace dtse::memlib
