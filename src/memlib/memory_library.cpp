#include "memlib/memory_library.hpp"

#include "support/check.hpp"

namespace dtse::memlib {

double MemoryLibrary::offchip_power_mw(const DramSelection& selection,
                                       std::uint64_t reads, std::uint64_t writes,
                                       std::uint64_t frame_cycles) const {
  DTSE_CHECK(selection.feasible, "off-chip selection is not feasible");
  DTSE_CHECK(frame_cycles > 0, "frame must span at least one cycle");
  const double seconds = clock_.seconds(frame_cycles);
  return average_power_mw(selection.cost.access_energy_nj(reads, writes),
                          selection.cost.static_power_mw, seconds);
}

}  // namespace dtse::memlib
