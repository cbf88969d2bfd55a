// Cost record types shared by all memory technology models.
//
// The paper evaluates every design decision on three numbers: on-chip area
// [mm^2], on-chip power [mW] and off-chip power [mW].  `MemoryCost` describes
// one physical memory; `CostSummary` aggregates a whole organization into the
// paper's reporting triple.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace dtse::memlib {

/// Number of simultaneous access ports a memory provides.
enum class PortCount : std::uint8_t { kSingle = 1, kDual = 2 };

[[nodiscard]] constexpr int port_count(PortCount p) { return static_cast<int>(p); }

/// Where a memory physically lives.  Off-chip memories contribute no die
/// area (they are separate commodity parts) but typically dominate power.
enum class Location : std::uint8_t { kOnChip, kOffChip };

/// Physical characteristics of one memory instance.
struct MemoryCost {
  double area_mm2 = 0.0;          ///< die area, 0 for off-chip parts
  double read_energy_nj = 0.0;    ///< energy per read access
  double write_energy_nj = 0.0;   ///< energy per write access
  double static_power_mw = 0.0;   ///< leakage / refresh / standby power
  double access_time_ns = 0.0;    ///< random access cycle time

  /// Energy for a mixed access profile.
  [[nodiscard]] double access_energy_nj(std::uint64_t reads, std::uint64_t writes) const {
    return read_energy_nj * static_cast<double>(reads) +
           write_energy_nj * static_cast<double>(writes);
  }
};

/// The three-figure summary every table in the paper reports.
struct CostSummary {
  double onchip_area_mm2 = 0.0;
  double onchip_power_mw = 0.0;
  double offchip_power_mw = 0.0;

  [[nodiscard]] double total_power_mw() const {
    return onchip_power_mw + offchip_power_mw;
  }

  CostSummary& operator+=(const CostSummary& other) {
    onchip_area_mm2 += other.onchip_area_mm2;
    onchip_power_mw += other.onchip_power_mw;
    offchip_power_mw += other.offchip_power_mw;
    return *this;
  }

  friend CostSummary operator+(CostSummary a, const CostSummary& b) { return a += b; }
};

std::ostream& operator<<(std::ostream& os, const CostSummary& summary);

/// One memory's additive contribution to the on-chip objective.  Composable:
/// the on-chip part of a CostSummary is the sum of its memories' terms, which
/// is what lets an incremental solver re-cost a move from cached terms of the
/// untouched memories instead of rebuilding the whole organization.
struct CostTerm {
  double area_mm2 = 0.0;
  double power_mw = 0.0;

  CostTerm& operator+=(const CostTerm& other) {
    area_mm2 += other.area_mm2;
    power_mw += other.power_mw;
    return *this;
  }

  friend CostTerm operator+(CostTerm a, const CostTerm& b) { return a += b; }
};

std::ostream& operator<<(std::ostream& os, const CostTerm& term);

/// Weights used when a single scalar objective is needed (assignment search).
/// Defaults mirror the paper's emphasis: power first, area as tie-breaker.
struct CostWeights {
  double area_weight = 1.0;    ///< per mm^2
  double power_weight = 4.0;   ///< per mW

  [[nodiscard]] double scalarize(const CostSummary& s) const {
    return area_weight * s.onchip_area_mm2 +
           power_weight * (s.onchip_power_mw + s.offchip_power_mw);
  }

  /// Scalar objective of an on-chip-only aggregate (no off-chip channels
  /// change during signal-to-memory assignment moves).
  [[nodiscard]] double scalarize(const CostTerm& t) const {
    return area_weight * t.area_mm2 + power_weight * t.power_mw;
  }
};

}  // namespace dtse::memlib
