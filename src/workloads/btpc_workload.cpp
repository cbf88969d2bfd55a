#include "workloads/btpc_workload.hpp"

#include "hierarchy/hierarchy.hpp"
#include "structuring/structuring.hpp"
#include "support/check.hpp"
#include "support/image.hpp"

namespace dtse::workloads {

namespace {

constexpr int kDefaultProfileEdge = 512;

/// The synthetic compound frame a profiling or verify run encodes.
support::Image profile_frame(const WorkloadOptions& options) {
  const int size = options.profile_size > 0 ? options.profile_size : kDefaultProfileEdge;
  return support::make_synthetic_image(size, size, support::SyntheticKind::kCompound,
                                       options.seed);
}

/// The profiled encode's codec options: the defaults, with the backend
/// `options` selects.
btpc::CodecOptions resolve_codec(const WorkloadOptions& options) {
  btpc::CodecOptions codec;
  if (options.entropy_backend) codec.backend = *options.entropy_backend;
  return codec;
}

ir::BasicGroupId require_group(const ir::Application& app, std::string_view name) {
  const auto id = app.find_group(name);
  DTSE_CHECK(id.has_value(), "demonstrator profile lacks the " + std::string(name) +
                                 " array");
  return *id;
}

}  // namespace

ir::Application BtpcWorkload::profile(const WorkloadOptions& options) const {
  return btpc::profile_btpc(profile_frame(options), kDesignSize, kDesignSize,
                            resolve_codec(options));
}

VerifyReport BtpcWorkload::verify(const WorkloadOptions& options) const {
  const auto image = profile_frame(options);
  btpc::Encoder encoder(image.width(), image.height());
  const auto encoded = encoder.encode(image, resolve_codec(options));
  auto decoded = btpc::Decoder{}.try_decode(encoded);
  if (!decoded.ok()) {
    return VerifyReport::fail("decode", decoded.status().to_string());
  }
  if (!(decoded.value() == image)) {
    return VerifyReport::fail("round-trip",
                              "lossless decode does not reproduce the input frame");
  }
  return VerifyReport::pass();
}

ir::Application BtpcWorkload::tuned_variant(const ir::Application& profiled) const {
  return btpc_best_variant(profiled);
}

std::vector<std::pair<std::string, ir::Application>> btpc_structuring_variants(
    const ir::Application& profiled) {
  const auto ridge = require_group(profiled, "ridge");
  const auto pyr = require_group(profiled, "pyr");

  std::vector<std::pair<std::string, ir::Application>> variants;
  variants.emplace_back("No structuring", profiled);
  const int factor = structuring::recommended_compaction_factor(profiled, ridge, 8);
  variants.emplace_back("ridge compacted",
                        structuring::apply_compaction(profiled, ridge, factor));
  variants.emplace_back("ridge and pyr merged",
                        structuring::apply_merging(profiled, ridge, pyr, "pyr_ridge"));
  return variants;
}

std::vector<std::pair<std::string, ir::Application>> btpc_hierarchy_variants(
    const ir::Application& merged) {
  const auto image = require_group(merged, "image");
  std::vector<std::pair<std::string, ir::Application>> variants;
  for (const auto& option : hierarchy::enumerate_options(merged, image)) {
    variants.emplace_back(option.label,
                          hierarchy::apply_hierarchy(merged, image, option.layers));
  }
  return variants;
}

ir::Application btpc_best_variant(const ir::Application& profiled) {
  const auto ridge = require_group(profiled, "ridge");
  const auto pyr = require_group(profiled, "pyr");
  auto merged = structuring::apply_merging(profiled, ridge, pyr, "pyr_ridge");
  const auto image = require_group(merged, "image");
  const auto options = hierarchy::enumerate_options(merged, image);
  // "Only layer 0" wins in the paper; index 2 of the canonical option list.
  return hierarchy::apply_hierarchy(merged, image, options[2].layers);
}

}  // namespace dtse::workloads
