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
// The technology constants are fixed and documented below; they are
// calibrated for a 0.7um-class process so the BTPC demonstrator lands in the
// paper's magnitude range.  `cost` is inline: the assignment search prices a
// member set per annealing move through it.
#pragma once

#include <cmath>
#include <cstdint>

#include "memlib/memory_cost.hpp"
#include "support/check.hpp"

namespace dtse::memlib {

/// Analytic model of a generated on-chip SRAM block.  Stateless.
class SramModel {
 public:
  /// Cost of one generated SRAM block.  `words` and `width_bits` must be
  /// positive and within generator limits.
  [[nodiscard]] MemoryCost cost(std::uint64_t words, int width_bits,
                                PortCount ports) const {
    DTSE_CHECK(words > 0, "SRAM block needs at least one word");
    DTSE_CHECK(width_bits > 0, "SRAM width must be positive");
    DTSE_CHECK(words <= kMaxWords, "SRAM block exceeds generator capacity");
    DTSE_CHECK(width_bits <= kMaxWidthBits, "SRAM width exceeds generator limit");

    const double bits = static_cast<double>(words) * static_cast<double>(width_bits);
    const double sqrt_bits = std::sqrt(bits);

    MemoryCost c;
    c.area_mm2 = cell_area_mm2(bits) + kPeripheryAreaMm2 +
                 kPeripheryAreaPerBitMm2 * static_cast<double>(width_bits);
    c.read_energy_nj = kEnergyBaseNj + kEnergyPerSqrtBitNj * sqrt_bits +
                       kEnergyWidthFactorNj * static_cast<double>(width_bits);
    c.write_energy_nj = c.read_energy_nj * kWriteEnergyFactor;
    c.static_power_mw = kLeakageUwPerKbit * (bits / 1024.0) * 1e-3;
    c.access_time_ns = kAccessTimeBaseNs + kAccessTimePerSqrtBitNs * sqrt_bits;

    if (ports == PortCount::kDual) {
      c.area_mm2 = cell_area_mm2(bits) * kDualPortAreaFactor +
                   2.0 * kPeripheryAreaMm2 +
                   2.0 * kPeripheryAreaPerBitMm2 * static_cast<double>(width_bits);
      c.read_energy_nj *= kDualPortEnergyFactor;
      c.write_energy_nj *= kDualPortEnergyFactor;
      c.static_power_mw *= 1.6;
      c.access_time_ns *= 1.15;
    }
    return c;
  }

  /// Single-port cell area of `bits` bits, the least any block holding them
  /// costs: a second port, a wider word or the periphery only add to it.
  [[nodiscard]] static constexpr double cell_area_mm2(double bits) {
    return bits * kCellAreaUm2PerBit * 1e-6;
  }

 private:
  // Technology constants of a 0.7um-class module generator, calibrated so
  // the BTPC demonstrator's on-chip organization lands in the paper's
  // magnitude range (tens of mm^2, tens of mW).  Module-generator area
  // includes intra-module routing, which is why the effective per-bit figure
  // is large.
  static constexpr double kCellAreaUm2PerBit = 300.0;  ///< 6T cell + routing
  static constexpr double kPeripheryAreaMm2 = 1.8;  ///< decoder/sense/control per block
  static constexpr double kPeripheryAreaPerBitMm2 = 0.012;  ///< column periphery per bit
  static constexpr double kDualPortAreaFactor = 1.9;  ///< 8T cell + duplicated periphery

  static constexpr double kEnergyBaseNj = 0.45;  ///< clocking/control per access
  static constexpr double kEnergyPerSqrtBitNj = 0.004;  ///< lines ~ sqrt(capacity)
  static constexpr double kEnergyWidthFactorNj = 0.02;  ///< per data bit driven
  static constexpr double kWriteEnergyFactor = 1.12;  ///< writes swing full bitlines
  static constexpr double kDualPortEnergyFactor = 1.8;  ///< 8T cells, longer lines

  static constexpr double kLeakageUwPerKbit = 1.2;  ///< standby power per kbit
  static constexpr double kAccessTimeBaseNs = 4.0;  ///< decoder + sense
  static constexpr double kAccessTimePerSqrtBitNs = 0.045;

  static constexpr std::uint64_t kMaxWords = 1u << 20;  ///< largest block offered
  static constexpr int kMaxWidthBits = 64;
};

}  // namespace dtse::memlib
