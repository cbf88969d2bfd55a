// The CCSDS-123-style hyperspectral compressor packaged as a registered
// workload.
#pragma once

#include "hyperspec/codec.hpp"
#include "workloads/workload.hpp"

namespace dtse::workloads {

class HyperspecWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "hyperspec"; }
  [[nodiscard]] std::string_view description() const override {
    return "CCSDS-123-style lossless hyperspectral compressor (previous-band "
           "+ local-sum predictor, sample-adaptive Rice coder); 12x256x256 "
           "declared design point";
  }

  /// Profiles the default coder (`hyperspec::HsCodecOptions`, backend from
  /// `WorkloadOptions::entropy_backend`) on a synthetic cube, declared at
  /// the 12x256x256 design point.
  [[nodiscard]] ir::Application profile(
      const WorkloadOptions& options = {}) const override;
  [[nodiscard]] VerifyReport verify(const WorkloadOptions& options = {}) const override;

  /// Profiled geometry for a given options.profile_size (exposed so tests
  /// and benches can reason about the cube actually run).
  [[nodiscard]] hyperspec::CubeShape profile_shape(const WorkloadOptions& options) const;
};

}  // namespace dtse::workloads
