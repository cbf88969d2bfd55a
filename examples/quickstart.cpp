// Quickstart: describe a small application, get memory organization
// feedback, and act on it.
//
// A toy motion-detector works on a CIF luma frame: it reads the current and
// the previous frame pixel-by-pixel, updates a background estimate and
// writes a binary motion mask.  We model its arrays and loop, ask the
// physical memory management stage for the cost of the straightforward
// implementation, and then compare against a variant where the two frame
// reads are merged into one record array — the Section 4.3 trade-off in
// twenty lines.
#include <iostream>

#include "core/explorer.hpp"
#include "structuring/structuring.hpp"

int main() {
  using namespace dtse;

  // --- 1. the pruned application model ------------------------------------
  ir::Application app("motion_detector");
  const auto current = app.add_group({"current", 352 * 288, 8, std::nullopt, 2});
  const auto previous = app.add_group({"previous", 352 * 288, 8, std::nullopt, 2});
  const auto background = app.add_group({"background", 352 * 288, 8, std::nullopt, 2});
  const auto mask = app.add_group({"mask", 352 * 288 / 8, 8, std::nullopt, 2});
  const auto threshold_lut = app.add_group({"threshold_lut", 256, 8, std::nullopt, 2});

  ir::LoopBody pixel_loop;
  pixel_loop.name = "per_pixel";
  pixel_loop.iterations = 352 * 288;
  // Reads of current and previous hit the same index every iteration: a
  // perfect merging candidate.  Sequential scans give full page locality.
  pixel_loop.accesses = {
      {current, ir::AccessKind::kRead, 1.0, 1.0, 1.0, 1.0},
      {previous, ir::AccessKind::kRead, 1.0, 1.0, 1.0, 1.0},
      {background, ir::AccessKind::kRead, 1.0, 1.0, 1.0, 1.0},
      {threshold_lut, ir::AccessKind::kRead, 1.0, 0.0, 0.0, 1.0},
      {background, ir::AccessKind::kWrite, 1.0, 1.0, 1.0, 1.0},
      {mask, ir::AccessKind::kWrite, 0.125, 1.0, 1.0, 1.0},
  };
  pixel_loop.deps = {{0, 4}, {1, 4}, {2, 4}, {0, 5}, {1, 5}};
  pixel_loop.co_accesses = {{0, 1, 1.0}};  // current+previous read together
  app.add_body(pixel_loop);
  app.validate();

  // --- 2. accurate feedback on the baseline -------------------------------
  core::Explorer explorer{memlib::MemoryLibrary{}};
  core::ExplorerOptions options;
  options.real_time_budget_cycles = 1'000'000;  // ~10 frames/s at 10 MHz
  options.storage_budget_cycles = 600'000;

  const auto baseline = explorer.evaluate(app, options);
  std::cout << "baseline:  " << baseline.to_string() << '\n';

  // --- 3. explore one structuring decision ---------------------------------
  const double affinity = structuring::co_access_affinity(app, current, previous);
  std::cout << "current/previous co-access affinity: " << affinity << '\n';
  const auto merged_app = structuring::apply_merging(app, current, previous, "frames");
  const auto merged = explorer.evaluate(merged_app, options);
  std::cout << "merged:    " << merged.to_string() << '\n';

  // --- 4. decide ------------------------------------------------------------
  memlib::CostWeights weights;
  const bool take_merged =
      weights.scalarize(merged.summary) < weights.scalarize(baseline.summary);
  std::cout << "decision:  " << (take_merged ? "merge the frame arrays" : "keep as is")
            << " (only this variant now needs to be implemented in detail)\n";

  std::cout << "\nwinning memory organization:\n"
            << (take_merged ? merged : baseline).allocation.to_string(
                   take_merged ? merged_app : app);
  return 0;
}
