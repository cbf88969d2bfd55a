#include "workloads/hyperspec_workload.hpp"

#include <algorithm>

namespace dtse::workloads {

namespace {

/// Default declared design point: a 12-band 256x256 push-broom segment —
/// sized so the per-frame access volume is in the same league as the BTPC
/// 1024x1024 point (a shared organization serving both stays explorable
/// within the 20 Mcycle real-time budget).
constexpr hyperspec::CubeShape kDefaultDeclared{12, 256, 256};
constexpr int kDefaultProfileEdge = 96;

}  // namespace

HyperspecWorkload::HyperspecWorkload(hyperspec::HsCodecOptions codec,
                                     hyperspec::CubeShape declared)
    : codec_(codec), declared_(declared) {
  if (declared_.bands == 0) declared_.bands = kDefaultDeclared.bands;
  if (declared_.height == 0) declared_.height = kDefaultDeclared.height;
  if (declared_.width == 0) declared_.width = kDefaultDeclared.width;
}

hyperspec::CubeShape HyperspecWorkload::profile_shape(const WorkloadOptions& options) const {
  // Floor of 16: the encoder's cube reuse-window ladder is monotone only for
  // profile widths >= 12 (a declared "one row" must simulate more words than
  // the 12-word register window), and a tinier cube profiles nothing useful.
  const int edge = std::max(
      16, options.profile_size > 0 ? options.profile_size : kDefaultProfileEdge);
  // The band count scales with the edge (an eighth, at least 3) so shrinking
  // the profile shrinks all three dimensions of the access pattern.
  return {std::max(3, edge / 8), edge, edge};
}

ir::Application HyperspecWorkload::profile(const WorkloadOptions& options) const {
  auto codec = codec_;
  if (options.entropy_backend) codec.backend = *options.entropy_backend;
  const auto cube = hyperspec::make_synthetic_cube(profile_shape(options), options.seed,
                                                   codec.dynamic_range_bits);
  return hyperspec::profile_hyperspec(cube, declared_, codec);
}

VerifyReport HyperspecWorkload::verify(const WorkloadOptions& options) const {
  auto codec = codec_;
  if (options.entropy_backend) codec.backend = *options.entropy_backend;
  const auto shape = profile_shape(options);
  const auto cube =
      hyperspec::make_synthetic_cube(shape, options.seed, codec.dynamic_range_bits);
  hyperspec::Encoder encoder(shape);
  const auto encoded = encoder.encode(cube, codec);
  auto decoded = hyperspec::Decoder{}.try_decode(encoded);
  if (!decoded.ok()) {
    return VerifyReport::fail("decode", decoded.status().to_string());
  }
  if (!(decoded.value() == cube)) {
    return VerifyReport::fail("round-trip",
                              "lossless decode does not reproduce the input cube");
  }
  return VerifyReport::pass();
}

}  // namespace dtse::workloads
