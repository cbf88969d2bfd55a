// Shared scaffolding for the table-regeneration benches.
//
// Every bench profiles the BTPC demonstrator once (256x256 frame by
// default, declared at the paper's 1024x1024 design point; pass a size
// argument for a larger profile run) and prints its table with the paper's
// reference values alongside, so shape agreement is visible at a glance.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/explorer.hpp"
#include "support/table.hpp"
#include "workloads/btpc_workload.hpp"

namespace dtse::bench {

/// Profiling options from the optional frame-size argument: 256 when absent,
/// otherwise an integer in [64, 16384].  Anything else prints a usage line
/// and exits 1.
inline workloads::WorkloadOptions profile_options_from_args(int argc, char** argv) {
  workloads::WorkloadOptions options;
  options.profile_size = 256;
  if (argc > 1) {
    char* end = nullptr;
    const long size = std::strtol(argv[1], &end, 10);
    if (argc > 2 || end == argv[1] || *end != '\0' || size < 64 || size > 16384) {
      std::cerr << "usage: " << argv[0] << " [frame-size in 64..16384]\n";
      std::exit(1);
    }
    options.profile_size = static_cast<int>(size);
  }
  return options;
}

/// Paper reference triple for one table row.
struct PaperRow {
  const char* label;
  double area_mm2;
  double onchip_mw;
  double offchip_mw;
};

inline support::Table make_comparison_table() {
  return support::Table({"Version", "area [mm2]", "on-chip [mW]", "off-chip [mW]",
                         "paper area", "paper on-chip", "paper off-chip"});
}

inline void add_comparison_row(support::Table& table, const std::string& label,
                               const memlib::CostSummary& summary, const PaperRow& paper) {
  using support::Table;
  table.add_row({label, Table::num(summary.onchip_area_mm2),
                 Table::num(summary.onchip_power_mw), Table::num(summary.offchip_power_mw),
                 Table::num(paper.area_mm2), Table::num(paper.onchip_mw),
                 Table::num(paper.offchip_mw)});
}

inline void print_header(const char* what, const workloads::WorkloadOptions& options) {
  constexpr int kDesign = workloads::BtpcWorkload::kDesignSize;
  std::cout << "=== " << what << " ===\n"
            << "profile frame " << options.profile_size << "x" << options.profile_size
            << ", design point " << kDesign << "x" << kDesign
            << "; absolute paper numbers are NOT expected to match (different\n"
            << "technology models), the ordering and rough ratios are.\n\n";
}

}  // namespace dtse::bench
