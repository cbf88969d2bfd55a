// Block-matching motion estimation packaged as a registered workload.
#pragma once

#include "motion/estimator.hpp"
#include "workloads/workload.hpp"

namespace dtse::workloads {

class MotionWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "motion"; }
  [[nodiscard]] std::string_view description() const override {
    return "block-matching motion estimator (16x16 blocks, +-8 three-step "
           "search, SAD metric) over correlated frame pairs; 352x288 CIF "
           "declared design point";
  }

  /// Profiles one default estimation run (`motion::MotionOptions`: 16x16
  /// blocks, +-8 three-step search) on a synthetic frame pair, declared at
  /// the CIF real-time point.  Deterministic per (profile geometry, seed).
  /// Three-step is the recipe because at CIF geometry the exhaustive full
  /// search leaves almost no spare cycles for the datapath and costs ~8x
  /// the on-chip power — picking the strategy IS the first design decision,
  /// and the cost feedback makes it.
  [[nodiscard]] ir::Application profile(
      const WorkloadOptions& options = {}) const override;

  /// Golden check, both strategies: the full search must match the
  /// independent oracle field bit for bit, and every vector the three-step
  /// search reports must carry its exact recomputed SAD, no worse than the
  /// null vector's.
  [[nodiscard]] VerifyReport verify(const WorkloadOptions& options = {}) const override;

  /// Profiled frame edge for a given options.profile_size (exposed so tests
  /// and benches can reason about the frames actually run).
  [[nodiscard]] int profile_edge(const WorkloadOptions& options) const;
};

}  // namespace dtse::workloads
