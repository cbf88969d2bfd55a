// Regenerates Table 3: trading storage cycle budget against memory
// organization cost.
//
// Paper reference (DAC'99, Table 3, 20M-cycle frame):
//   spare cycles      86144 ( 0.4%)   64.4  39.0   98.1
//   spare cycles    2351232 (11.8%)   66.0  40.1   98.1
//   spare cycles    3133568 (15.7%)   84.0  47.7   98.1
//   spare cycles    3481728 (17.4%)   74.3  40.0  138.7
//
// Budgets jump in coarse steps because one cycle granted to a loop body
// executed ~1M times costs ~1M cycles of the global budget.  Our substrate
// shows the same regimes — nearly-free tightening, then rising on-chip
// cost, then an off-chip (dual-port DRAM) jump — the regime boundaries fall
// at different percentages than on the authors' testbed.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dtse;
  const auto options = bench::profile_options_from_args(argc, argv);
  bench::print_header("Table 3: storage cycle budget distribution", options);

  const auto profiled = workloads::BtpcWorkload{}.profile(options);
  const auto best = workloads::btpc_best_variant(profiled);

  core::Explorer explorer{memlib::MemoryLibrary{}};
  core::ExplorerOptions explorer_options;
  const std::uint64_t full = explorer_options.real_time_budget_cycles;
  const auto points = explorer.explore_cycle_budgets(
      best,
      {full, full * 85 / 100, full * 75 / 100, full * 65 / 100, full * 58 / 100,
       full * 52 / 100},
      explorer_options);

  support::Table table({"Extra cycles for data-path", "area [mm2]", "on-chip [mW]",
                        "off-chip [mW]", "used cycles"});
  for (const auto& point : points) {
    table.add_row({std::to_string(point.spare_cycles) + " (" +
                       support::Table::num(point.spare_percent) + "%)",
                   support::Table::num(point.eval.summary.onchip_area_mm2),
                   support::Table::num(point.eval.summary.onchip_power_mw),
                   support::Table::num(point.eval.summary.offchip_power_mw),
                   std::to_string(point.used_cycles)});
  }
  std::cout << table.to_string() << '\n';

  memlib::CostWeights weights;
  const double first = weights.scalarize(points.front().eval.summary);
  const double last = weights.scalarize(points.back().eval.summary);
  std::cout << "shape check: tightening from " << points.front().spare_percent << "% to "
            << support::Table::num(points.back().spare_percent)
            << "% spare raises the scalar cost by "
            << support::Table::num(100.0 * (last - first) / first)
            << "% (paper: flat, then on-chip jump, then off-chip jump)\n";
  return 0;
}
