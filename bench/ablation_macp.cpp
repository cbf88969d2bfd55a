// Ablation: MACP analysis (Section 4.2) and the conflict graph under budget
// pressure.
//
// Shows (a) the memory access critical path of the demonstrator against the
// real-time budget — the go/no-go check for loop transformations, and
// (b) the organization the off-chip-aware conflict penalties lead to at a
// tight storage budget.  The penalties are fixed constants of the pricing
// recipe (scbd/flow_graph_balancing.cpp).  Naive all-1.0 penalties let the
// scheduler parallelize off-chip accesses: at a 64x64 profile they measured
// 80.6 mm2, 78.8 mW on-chip and 202.8 mW off-chip, against 74.6, 74.5 and
// 150.0 for the off-chip-aware values.
#include "bench_common.hpp"
#include "graph/macp.hpp"
#include "scbd/budget_distribution.hpp"

int main(int argc, char** argv) {
  using namespace dtse;
  const auto options = bench::profile_options_from_args(argc, argv);
  bench::print_header("Ablation: MACP and conflict graph under budget pressure", options);

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
  core::ExplorerOptions opts;
  opts.storage_budget_cycles = 14'000'000;  // pressure makes penalties matter
  const auto eval = explorer.evaluate(best, opts);
  table.add_row({"default (off-chip aware)", support::Table::num(eval.summary.onchip_area_mm2),
                 support::Table::num(eval.summary.onchip_power_mw),
                 support::Table::num(eval.summary.offchip_power_mw),
                 std::to_string(eval.scbd.conflicts.edge_count())});
  std::cout << table.to_string();
  return 0;
}
