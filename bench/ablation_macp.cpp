// Ablation: MACP analysis (Section 4.2) and conflict-penalty sensitivity.
//
// Shows (a) the memory access critical path of the demonstrator against the
// real-time budget — the go/no-go check for loop transformations, and
// (b) how the flow-graph balancing penalties steer the conflict graph: with
// naive (all-equal) penalties the scheduler happily parallelizes off-chip
// accesses, and the off-chip organization pays for it.
#include "bench_common.hpp"
#include "graph/macp.hpp"
#include "scbd/budget_distribution.hpp"

int main(int argc, char** argv) {
  using namespace dtse;
  const auto options = bench::profile_options_from_args(argc, argv);
  bench::print_header("Ablation: MACP and conflict penalty sensitivity", options);

  const auto profiled = workloads::BtpcWorkload{}.profile(options);
  core::Explorer explorer{memlib::MemoryLibrary{}};

  const auto macp = explorer.analyze_critical_path(profiled);
  std::cout << macp.to_string() << "real-time budget: 20000000 cycles -> "
            << (macp.feasible_within(20e6) ? "feasible without loop transformations"
                                           : "loop transformations REQUIRED")
            << "\n\n";

  const auto best = workloads::btpc_best_variant(profiled);
  support::Table table({"penalties", "area [mm2]", "on-chip [mW]", "off-chip [mW]",
                        "conflict edges"});
  for (const bool naive : {false, true}) {
    core::ExplorerOptions opts;
    opts.storage_budget_cycles = 14'000'000;  // pressure makes penalties matter
    if (naive) {
      opts.scbd.penalties = {1.0, 1.0, 1.0, 1.0, 1.0};
    }
    const auto eval = explorer.evaluate(best, opts);
    table.add_row({naive ? "naive (all 1.0)" : "default (off-chip aware)",
                   support::Table::num(eval.summary.onchip_area_mm2),
                   support::Table::num(eval.summary.onchip_power_mw),
                   support::Table::num(eval.summary.offchip_power_mw),
                   std::to_string(eval.scbd.conflicts.edge_count())});
  }
  std::cout << table.to_string()
            << "\noff-chip-aware penalties keep expensive conflicts (dual-port DRAM) "
               "out of the schedule.\n";
  return 0;
}
