#include "memlib/dram_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace dtse::memlib {

namespace {

/// The part catalogue.  Values follow the shape of late-90s EDO DRAM data
/// sheets: wider buses and bigger dies cost more energy per access and more
/// standby power; page-mode (EDO burst) accesses are ~2.5x cheaper.
const std::vector<DramPart>& catalogue() {
  // Energy grows only mildly with die capacity (bank segmentation), so one
  // right-sized part beats a stack of smaller ones once standby is counted.
  static const std::vector<DramPart> parts = {
      {"EDO-256Kx8", 256u * 1024u, 8, 21.0, 8.0, 4.5, 50.0},
      {"EDO-512Kx8", 512u * 1024u, 8, 21.5, 8.2, 5.0, 50.0},
      {"EDO-1Mx8", 1024u * 1024u, 8, 22.0, 8.5, 5.5, 55.0},
      {"EDO-2Mx8", 2048u * 1024u, 8, 23.0, 9.0, 7.0, 60.0},
      {"EDO-256Kx16", 256u * 1024u, 16, 25.5, 10.0, 6.0, 50.0},
      {"EDO-512Kx16", 512u * 1024u, 16, 26.0, 10.5, 6.5, 55.0},
      {"EDO-1Mx16", 1024u * 1024u, 16, 27.0, 11.0, 7.5, 60.0},
      {"EDO-4Mx16", 4096u * 1024u, 16, 30.0, 12.5, 11.0, 65.0},
  };
  return parts;
}

}  // namespace

double DramModel::effective_access_energy_nj(const DramPart& part,
                                             double page_hit_fraction) {
  return part.access_energy_nj * (1.0 - page_hit_fraction) +
         part.page_energy_nj * page_hit_fraction;
}

DramSelection DramModel::select(std::uint64_t words, int width_bits, PortCount ports,
                                double accesses_per_second,
                                double page_hit_fraction) const {
  DTSE_CHECK(words > 0, "off-chip signal needs at least one word");
  DTSE_CHECK(width_bits > 0, "off-chip signal width must be positive");
  DTSE_CHECK(accesses_per_second >= 0.0, "negative access rate");
  DTSE_CHECK(page_hit_fraction >= 0.0 && page_hit_fraction <= 1.0,
             "page hit fraction must be in [0,1]");

  DramSelection best;
  double best_power = std::numeric_limits<double>::max();

  for (const auto& part : catalogue()) {
    // Parts are combined in width (side by side on the bus) and in depth
    // (address ranges); all width-parallel parts fire on every access.
    const int width_parts =
        static_cast<int>((width_bits + part.width_bits - 1) / part.width_bits);
    const auto depth_parts =
        static_cast<std::uint64_t>((words + part.words - 1) / part.words);
    std::uint64_t total_parts = static_cast<std::uint64_t>(width_parts) * depth_parts;

    double energy_per_access_nj =
        effective_access_energy_nj(part, page_hit_fraction) * width_parts;
    if (ports == PortCount::kDual) {
      // A second port on commodity DRAM means a duplicated bank pair with
      // write broadcast and an arbiter: standby doubles, every access grows
      // by the duplicated writes plus arbitration overhead.
      total_parts *= 2;
      energy_per_access_nj *= 1.45;
    }
    const double dynamic_mw = accesses_per_second * energy_per_access_nj * 1e-6;
    const double standby_mw = static_cast<double>(total_parts) * part.standby_power_mw;
    const double power = dynamic_mw + standby_mw;

    if (power < best_power) {
      best_power = power;
      best.parts.assign(total_parts, part);
      best.cost = MemoryCost{};
      best.cost.read_energy_nj = energy_per_access_nj;
      best.cost.write_energy_nj = energy_per_access_nj;
      best.cost.static_power_mw = standby_mw;
      best.cost.access_time_ns = part.access_time_ns;
      best.feasible = true;
    }
  }
  return best;
}

}  // namespace dtse::memlib
