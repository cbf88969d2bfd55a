// The paper's BTPC demonstrator packaged as a registered workload, plus the
// case study of Sections 3-4 the examples and table benches run on it:
//   Table 1: structuring variants on ridge/pyr,
//   Table 2: memory hierarchy variants on the image array (Figure 3),
//   Tables 3-4: the cycle budget and allocation sweeps on the best variant.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "btpc/codec.hpp"
#include "workloads/workload.hpp"

namespace dtse::workloads {

class BtpcWorkload final : public Workload {
 public:
  /// Declared design point: the paper's 1024x1024 frame.
  static constexpr int kDesignSize = 1024;

  [[nodiscard]] std::string_view name() const override { return "btpc"; }
  [[nodiscard]] std::string_view description() const override {
    return "BTPC still-image codec (quincunx pyramid, adaptive Huffman) — "
           "the paper's demonstrator; 1024x1024 declared design point";
  }

  /// Runs the instrumented lossless encoder (default `btpc::CodecOptions`,
  /// backend from `WorkloadOptions::entropy_backend`) on a synthetic
  /// compound frame of edge `profile_size` (default 512) and returns the
  /// pruned model declared at kDesignSize x kDesignSize.
  [[nodiscard]] ir::Application profile(
      const WorkloadOptions& options = {}) const override;
  [[nodiscard]] VerifyReport verify(const WorkloadOptions& options = {}) const override;

  /// Structuring (ridge+pyr merged) and the layer-0 hierarchy winner — the
  /// paper's best variant.
  [[nodiscard]] ir::Application tuned_variant(
      const ir::Application& profiled) const override;
};

/// Table 1 variants: no structuring / ridge compacted / ridge+pyr merged.
[[nodiscard]] std::vector<std::pair<std::string, ir::Application>>
btpc_structuring_variants(const ir::Application& profiled);

/// Table 2 variants on top of the merged model: the four hierarchy options
/// of Figure 3 for the image array (12-register ylocal, 5K yhier).
[[nodiscard]] std::vector<std::pair<std::string, ir::Application>>
btpc_hierarchy_variants(const ir::Application& merged);

/// The winning variant after structuring + hierarchy (merged, layer 0) —
/// the input to the Table 3 and Table 4 sweeps.
[[nodiscard]] ir::Application btpc_best_variant(const ir::Application& profiled);

}  // namespace dtse::workloads
