#include "workloads/btpc_workload.hpp"

#include "core/btpc_case_study.hpp"
#include "support/image.hpp"

namespace dtse::workloads {

namespace {

core::BtpcCaseOptions case_options(const btpc::CodecOptions& codec,
                                   const WorkloadOptions& options) {
  core::BtpcCaseOptions result;
  if (options.profile_size > 0) {
    result.profile_width = options.profile_size;
    result.profile_height = options.profile_size;
  }
  result.image_seed = options.seed;
  result.codec = codec;
  if (options.entropy_backend) result.codec.backend = *options.entropy_backend;
  return result;
}

}  // namespace

ir::Application BtpcWorkload::profile(const WorkloadOptions& options) const {
  return core::profile_btpc_demonstrator(case_options(codec_, options));
}

VerifyReport BtpcWorkload::verify(const WorkloadOptions& options) const {
  const auto opts = case_options(codec_, options);
  const auto image = support::make_synthetic_image(opts.profile_width, opts.profile_height,
                                                   support::SyntheticKind::kCompound,
                                                   opts.image_seed);
  btpc::Encoder encoder(image.width(), image.height());
  auto codec = codec_;
  codec.lossy = false;  // the golden check is the lossless round trip
  const auto encoded = encoder.encode(image, codec);
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
  return core::btpc_best_variant(profiled);
}

}  // namespace dtse::workloads
