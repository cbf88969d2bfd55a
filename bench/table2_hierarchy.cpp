// Regenerates Table 2 (and Figure 3): the memory hierarchy decision for the
// image array.
//
// Paper reference (DAC'99, Table 2):
//   No hierarchy            65.4  39.4  130.2
//   Only layer 1 (yhier)   119.0  85.8   87.4
//   Only layer 0 (ylocal)   67.1  41.7   98.1
//   2 layers (both)         99.7  62.7   87.4
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dtse;
  const auto options = bench::profile_options_from_args(argc, argv);
  bench::print_header("Table 2 / Figure 3: memory hierarchy decision for image", options);

  const auto profiled = workloads::BtpcWorkload{}.profile(options);
  const auto structuring = workloads::btpc_structuring_variants(profiled);
  const auto& merged = structuring.back().second;

  core::Explorer explorer{memlib::MemoryLibrary{}};
  const auto variants =
      explorer.explore_variants(workloads::btpc_hierarchy_variants(merged), {});

  static constexpr bench::PaperRow kPaper[] = {
      {"No hierarchy", 65.4, 39.4, 130.2},
      {"Only layer 1 (yhier)", 119.0, 85.8, 87.4},
      {"Only layer 0 (ylocal)", 67.1, 41.7, 98.1},
      {"2 layers (both)", 99.7, 62.7, 87.4},
  };

  auto table = bench::make_comparison_table();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    bench::add_comparison_row(table, variants[i].label, variants[i].eval.summary,
                              kPaper[i]);
  }
  std::cout << table.to_string() << '\n';

  // Figure 3's topology is what variant 3 instantiates; show it.
  const auto& both = variants[3].app;
  std::cout << "Figure 3 layers instantiated in the '2 layers' variant:\n";
  for (const auto* name : {"image_l0", "image_l1", "image"}) {
    const auto id = both.find_group(name);
    if (!id) continue;
    const auto& group = both.group(*id);
    std::cout << "  " << name << ": " << group.words << " words x " << group.bitwidth
              << " bits (layer " << group.hierarchy_layer << ")\n";
  }

  memlib::CostWeights weights;
  std::size_t best = 0;
  for (std::size_t i = 1; i < variants.size(); ++i) {
    if (weights.scalarize(variants[i].eval.summary) <
        weights.scalarize(variants[best].eval.summary)) {
      best = i;
    }
  }
  std::cout << "\nshape check: best option is '" << variants[best].label
            << "' (paper: 'only layer 0')\n";
  return 0;
}
