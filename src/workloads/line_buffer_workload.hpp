// The 2-D convolution ("line buffer") case study packaged as a registered
// workload.
//
// Originally examples/line_buffer_filter.cpp built this model analytically;
// the workload replaces that with a real instrumented kernel: a 5x5
// integer convolution (binomial smoothing, replicate borders) whose frame
// reuse profile now comes from the recorder's LRU simulation instead of
// hand-computed folklore numbers.  The example is a thin driver over this
// class.
#pragma once

#include "workloads/workload.hpp"

namespace dtse::workloads {

class LineBufferWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "line_buffer"; }
  [[nodiscard]] std::string_view description() const override {
    return "5x5 binomial convolution filter (sliding-window reads, the "
           "classic line-buffer hierarchy decision); 720x576 declared "
           "design point";
  }

  /// Profiles one instrumented filter run on a synthetic frame.
  [[nodiscard]] ir::Application profile(
      const WorkloadOptions& options = {}) const override;

  /// Golden check: the kernel's output must match an independent
  /// coefficient-major reference convolution sample for sample.
  [[nodiscard]] VerifyReport verify(const WorkloadOptions& options = {}) const override;

  /// Applies the line-buffer promotion this access pattern is famous for:
  /// the five-line layer-1 buffer on the frame array (the register-window
  /// refinement on top of it is within a mW — see the example's sweep).
  [[nodiscard]] ir::Application tuned_variant(
      const ir::Application& profiled) const override;

  /// Profiled frame edge for a given options.profile_size.
  [[nodiscard]] int profile_edge(const WorkloadOptions& options) const;

  /// Declared design geometry: one 720x576 PAL frame per period.
  [[nodiscard]] static constexpr int declared_width() { return 720; }
  [[nodiscard]] static constexpr int declared_height() { return 576; }
};

}  // namespace dtse::workloads
