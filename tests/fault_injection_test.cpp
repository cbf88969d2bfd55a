// Fault-injection campaigns for the hardened decode paths: every corrupted
// container must land in the trichotomy (bit-exact | clean Status | bounded
// output) — a single throw/crash is a kViolation and fails the campaign.
// This file runs under the sanitizer CI job too, so the campaigns double as
// a fixed-cost ASan/UBSan sweep of the decode surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "btpc/codec.hpp"
#include "entropy/entropy_coder.hpp"
#include "harness/fault_injection.hpp"
#include "hyperspec/codec.hpp"
#include "ir/application.hpp"
#include "persist/app_container.hpp"
#include "persist/profile_cache.hpp"
#include "support/image.hpp"

namespace dtse::testing {
namespace {

std::vector<std::uint8_t> golden_btpc(int edge, int delta,
                                      entropy::Backend backend = entropy::Backend::kHuffman) {
  const auto image = support::make_synthetic_image(
      edge, edge, support::SyntheticKind::kCompound, 4242);
  btpc::Encoder encoder(edge, edge);
  btpc::CodecOptions options;
  options.lossy = delta > 1;
  options.quantizer_delta = delta;
  options.backend = backend;
  return btpc::serialize(encoder.encode(image, options));
}

std::vector<std::uint8_t> golden_hyperspec(hyperspec::CubeShape shape, int unary,
                                           entropy::Backend backend = entropy::Backend::kRice) {
  hyperspec::Encoder encoder(shape);
  hyperspec::HsCodecOptions options;
  options.unary_limit = unary;
  options.backend = backend;
  return hyperspec::serialize(
      encoder.encode(hyperspec::make_synthetic_cube(shape, 31), options));
}

TEST(Mutators, AreDeterministicAndNeverIdentity) {
  const auto bytes = golden_btpc(24, 1);
  for (const auto kind :
       {MutationKind::kBitFlip, MutationKind::kMultiBitFlip, MutationKind::kTruncate,
        MutationKind::kHeaderFuzz, MutationKind::kSplice, MutationKind::kRandom,
        MutationKind::kByteSwap, MutationKind::kSectionSplice}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto a = mutate(bytes, kind, seed, 14);
      const auto b = mutate(bytes, kind, seed, 14);
      EXPECT_EQ(a, b) << to_string(kind) << " seed " << seed;
      EXPECT_NE(a, bytes) << to_string(kind) << " seed " << seed;
    }
  }
  // Header fuzz stays within the header region.
  const auto fuzzed = mutate(bytes, MutationKind::kHeaderFuzz, 3, 14);
  ASSERT_EQ(fuzzed.size(), bytes.size());
  for (std::size_t i = 14; i < bytes.size(); ++i) {
    ASSERT_EQ(fuzzed[i], bytes[i]) << "payload byte " << i << " changed";
  }
}

TEST(FaultInjection, BtpcLosslessCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(probe_btpc, golden_btpc(48, 1), 14, 1, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
  // The battery must actually exercise both interesting arms: corruption
  // that is caught (clean errors) and corruption that slips past the
  // tripwires into a bounded decode.
  EXPECT_GT(report.probes, 1000u);
  EXPECT_GT(report.clean_errors, 0u);
  EXPECT_GT(report.bounded_outputs, 0u);
}

TEST(FaultInjection, BtpcLossyCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(probe_btpc, golden_btpc(32, 4), 14, 2, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
}

TEST(FaultInjection, HyperspecCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(
      probe_hyperspec, golden_hyperspec({4, 12, 12}, 16), 18, 3, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_GT(report.probes, 1000u);
  EXPECT_GT(report.clean_errors, 0u);
}

TEST(FaultInjection, HyperspecNarrowUnaryCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(
      probe_hyperspec, golden_hyperspec({8, 8, 16}, 8), 18, 4, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
}

// The new-backend containers: the "BTP2"/"HSC2" extended headers and both
// new coders' decode loops hold the same trichotomy as the legacy paths.

TEST(FaultInjection, BtpcExpGolombCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(
      probe_btpc, golden_btpc(48, 1, entropy::Backend::kExpGolomb), 15, 5, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_GT(report.clean_errors, 0u);
}

TEST(FaultInjection, BtpcRiceCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(
      probe_btpc, golden_btpc(32, 4, entropy::Backend::kRice), 15, 6, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
}

TEST(FaultInjection, HyperspecExpGolombCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(
      probe_hyperspec, golden_hyperspec({4, 12, 12}, 16, entropy::Backend::kExpGolomb),
      19, 7, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_GT(report.clean_errors, 0u);
}

TEST(FaultInjection, HyperspecRansCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(
      probe_hyperspec, golden_hyperspec({4, 12, 12}, 16, entropy::Backend::kRans),
      19, 8, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_GT(report.clean_errors, 0u);
}

TEST(FaultInjection, PristineContainersProbeBitExact) {
  const auto btpc_bytes = golden_btpc(24, 1);
  EXPECT_EQ(probe_btpc(btpc_bytes, btpc_bytes), DecodeOutcome::kBitExact);
  const auto hs_bytes = golden_hyperspec({2, 6, 6}, 16);
  EXPECT_EQ(probe_hyperspec(hs_bytes, hs_bytes), DecodeOutcome::kBitExact);
}

// --- the persisted application container ("APP1") ---------------------------

ir::Application golden_model(int bodies) {
  ir::Application app("campaign-model");
  const auto frame = app.add_group({"frame", 2048, 8, {}, 2});
  const auto line = app.add_group({"line", 96, 16, memlib::Location::kOnChip, 1});
  for (int b = 0; b < bodies; ++b) {
    ir::LoopBody body;
    body.name = "body" + std::to_string(b);
    body.iterations = 128u * (b + 1);
    body.accesses.push_back({frame, ir::AccessKind::kRead, 3.0, 0.5, 0.75, 1.0});
    body.accesses.push_back({line, ir::AccessKind::kWrite, 1.0, 1.0, 1.0, 1.0});
    body.deps.emplace_back(0, 1);
    app.add_body(std::move(body));
  }
  ir::ReuseProfile reuse;
  reuse.windows.push_back({32, 640.0});
  reuse.windows.push_back({128, 48.0});
  app.set_reuse_profile(frame, std::move(reuse));
  return app;
}

std::vector<std::uint8_t> golden_app(int bodies) {
  return persist::serialize(golden_model(bodies));
}

// Unlike the codec campaigns, APP1 carries a content hash per section, so
// (almost) every content mutation is *caught* rather than decoded into a
// bounded output — the campaigns assert clean errors, not bounded outputs.

TEST(FaultInjection, AppContainerCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(probe_app, golden_app(2),
                                   persist::kAppHeaderBytes, 11, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_GT(report.probes, 1000u);
  EXPECT_GT(report.clean_errors, 0u);
}

TEST(FaultInjection, AppContainerLargeModelCampaignHoldsTheTrichotomy) {
  const auto report = run_campaign(probe_app, golden_app(6),
                                   persist::kAppHeaderBytes, 12, 1000);
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_GT(report.clean_errors, 0u);
}

TEST(FaultInjection, AppContainerProbesPristineBitExact) {
  const auto bytes = golden_app(2);
  EXPECT_EQ(probe_app(bytes, bytes), DecodeOutcome::kBitExact);
}

// On-disk campaign: mutants are planted as committed cache entries and read
// back through the full ProfileCache path.  The cache must never throw —
// every corrupted entry either still parses bit-exact (the mutation missed
// the entry's meaning) or is quarantined as a miss.
TEST(FaultInjection, OnDiskCacheEntriesSurviveAMutationCampaign) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "fault_injection_cache";
  std::filesystem::remove_all(dir);
  persist::ProfileCache cache(dir.string());
  const auto model = golden_model(2);
  const auto pristine = persist::serialize(model);
  const std::string key = "0123456789abcdef";
  const auto entry = dir / (key + std::string(persist::kCacheEntrySuffix));

  constexpr MutationKind kKinds[] = {
      MutationKind::kBitFlip,  MutationKind::kMultiBitFlip,
      MutationKind::kTruncate, MutationKind::kHeaderFuzz,
      MutationKind::kSplice,   MutationKind::kRandom,
      MutationKind::kByteSwap, MutationKind::kSectionSplice};
  std::uint64_t hits = 0;
  std::uint64_t quarantines = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto mutant =
        mutate(pristine, kKinds[i % std::size(kKinds)], 1000 + i,
               persist::kAppHeaderBytes);
    {
      std::ofstream out(entry, std::ios::binary);
      out.write(reinterpret_cast<const char*>(mutant.data()),
                static_cast<std::streamsize>(mutant.size()));
      ASSERT_TRUE(out.good());
    }
    const auto before = cache.stats().quarantined;
    std::optional<ir::Application> loaded;
    ASSERT_NO_THROW(loaded = cache.load(key)) << "mutation " << i;
    if (loaded.has_value()) {
      // A surviving entry must be the pristine model, bit-for-bit.
      EXPECT_EQ(persist::serialize(*loaded), pristine) << "mutation " << i;
      ++hits;
    } else {
      EXPECT_EQ(cache.stats().quarantined, before + 1) << "mutation " << i;
      ++quarantines;
    }
  }
  EXPECT_EQ(hits + quarantines, 200u);
  EXPECT_GT(quarantines, 0u);
}

TEST(FaultInjection, CampaignIsDeterministic) {
  const auto pristine = golden_hyperspec({2, 6, 6}, 16);
  const auto a = run_campaign(probe_hyperspec, pristine, 18, 7, 100);
  const auto b = run_campaign(probe_hyperspec, pristine, 18, 7, 100);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.bit_exact, b.bit_exact);
  EXPECT_EQ(a.clean_errors, b.clean_errors);
  EXPECT_EQ(a.bounded_outputs, b.bounded_outputs);
}

}  // namespace
}  // namespace dtse::testing
