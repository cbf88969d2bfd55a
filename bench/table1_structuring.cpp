// Regenerates Table 1: basic group structuring for the BTPC application.
//
// Paper reference (DAC'99, Table 1):
//   No structuring          85.0  47.3  208.0
//   ridge compacted         82.2  46.1  204.6
//   ridge and pyr merged    65.4  39.4  130.2
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dtse;
  const auto options = bench::profile_options_from_args(argc, argv);
  bench::print_header("Table 1: basic group structuring", options);

  const auto profiled = workloads::BtpcWorkload{}.profile(options);
  core::Explorer explorer{memlib::MemoryLibrary{}};
  const auto variants =
      explorer.explore_variants(workloads::btpc_structuring_variants(profiled), {});

  static constexpr bench::PaperRow kPaper[] = {
      {"No structuring", 85.0, 47.3, 208.0},
      {"ridge compacted", 82.2, 46.1, 204.6},
      {"ridge and pyr merged", 65.4, 39.4, 130.2},
  };

  auto table = bench::make_comparison_table();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    bench::add_comparison_row(table, variants[i].label, variants[i].eval.summary,
                              kPaper[i]);
  }
  std::cout << table.to_string() << '\n';

  const double none = variants[0].eval.summary.offchip_power_mw;
  const double merged = variants[2].eval.summary.offchip_power_mw;
  std::cout << "shape check: merging cuts off-chip power by "
            << support::Table::num(100.0 * (none - merged) / none)
            << "% (paper: 37.4%); compaction effect is "
            << support::Table::num(
                   100.0 *
                   std::abs(variants[1].eval.summary.offchip_power_mw - none) / none)
            << "% (paper: 1.6%, 'rather small')\n";
  return 0;
}
