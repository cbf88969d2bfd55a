#include "memlib/sram_model.hpp"

#include <cmath>

#include "support/check.hpp"

namespace dtse::memlib {

namespace {

// Technology constants of a 0.7um-class module generator, calibrated so the
// BTPC demonstrator's on-chip organization lands in the paper's magnitude
// range (tens of mm^2, tens of mW).  Module-generator area includes
// intra-module routing, which is why the effective per-bit figure is large.
constexpr double kCellAreaUm2PerBit = 300.0;       ///< 6T cell + intra-module routing
constexpr double kPeripheryAreaMm2 = 1.8;          ///< decoder/sense-amp/control per instance
constexpr double kPeripheryAreaPerBitMm2 = 0.012;  ///< column periphery per data bit
constexpr double kDualPortAreaFactor = 1.9;        ///< 8T cell + duplicated periphery

constexpr double kEnergyBaseNj = 0.45;           ///< clocking/control per access
constexpr double kEnergyPerSqrtBitNj = 0.004;    ///< bitline/wordline term ~ sqrt(capacity)
constexpr double kEnergyWidthFactorNj = 0.02;    ///< per data bit driven
constexpr double kWriteEnergyFactor = 1.12;      ///< writes drive full-swing bitlines
constexpr double kDualPortEnergyFactor = 1.8;    ///< 8T cells, longer lines

constexpr double kLeakageUwPerKbit = 1.2;        ///< standby power per kbit
constexpr double kAccessTimeBaseNs = 4.0;        ///< decoder + sense
constexpr double kAccessTimePerSqrtBitNs = 0.045;

constexpr std::uint64_t kMaxWords = 1u << 20;    ///< largest block the generator offers
constexpr int kMaxWidthBits = 64;

}  // namespace

MemoryCost SramModel::cost(std::uint64_t words, int width_bits, PortCount ports) const {
  DTSE_CHECK(words > 0, "SRAM block needs at least one word");
  DTSE_CHECK(width_bits > 0, "SRAM width must be positive");
  DTSE_CHECK(words <= kMaxWords, "SRAM block exceeds generator capacity");
  DTSE_CHECK(width_bits <= kMaxWidthBits, "SRAM width exceeds generator limit");

  const double bits = static_cast<double>(words) * static_cast<double>(width_bits);
  const double sqrt_bits = std::sqrt(bits);

  MemoryCost c;
  c.area_mm2 = bits * kCellAreaUm2PerBit * 1e-6 + kPeripheryAreaMm2 +
               kPeripheryAreaPerBitMm2 * static_cast<double>(width_bits);
  c.read_energy_nj = kEnergyBaseNj + kEnergyPerSqrtBitNj * sqrt_bits +
                     kEnergyWidthFactorNj * static_cast<double>(width_bits);
  c.write_energy_nj = c.read_energy_nj * kWriteEnergyFactor;
  c.static_power_mw = kLeakageUwPerKbit * (bits / 1024.0) * 1e-3;
  c.access_time_ns = kAccessTimeBaseNs + kAccessTimePerSqrtBitNs * sqrt_bits;

  if (ports == PortCount::kDual) {
    c.area_mm2 = bits * kCellAreaUm2PerBit * 1e-6 * kDualPortAreaFactor +
                 2.0 * kPeripheryAreaMm2 +
                 2.0 * kPeripheryAreaPerBitMm2 * static_cast<double>(width_bits);
    c.read_energy_nj *= kDualPortEnergyFactor;
    c.write_energy_nj *= kDualPortEnergyFactor;
    c.static_power_mw *= 1.6;
    c.access_time_ns *= 1.15;
  }
  return c;
}

}  // namespace dtse::memlib
