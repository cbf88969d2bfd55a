// Tests for the workload registry and the multi-workload exploration path:
// every registered workload must profile -> allocate -> explore without
// error, and a merged (shared-organization) model must price correctly.
#include <gtest/gtest.h>

#include "core/explorer.hpp"
#include "core/pareto.hpp"
#include "persist/app_container.hpp"
#include "persist/fnv.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workloads/btpc_workload.hpp"
#include "workloads/hyperspec_workload.hpp"
#include "workloads/line_buffer_workload.hpp"
#include "workloads/motion_workload.hpp"
#include "workloads/shared_sweep.hpp"
#include "workloads/workload.hpp"

namespace dtse::workloads {
namespace {

/// Small profile geometry so the whole registry sweep runs in seconds.
WorkloadOptions small_options() {
  WorkloadOptions options;
  options.profile_size = 64;
  return options;
}

core::Explorer make_explorer() { return core::Explorer{memlib::MemoryLibrary{}}; }

TEST(Registry, BuiltinsAreRegistered) {
  const auto names = workload_names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_NE(find_workload("btpc"), nullptr);
  EXPECT_NE(find_workload("hyperspec"), nullptr);
  EXPECT_NE(find_workload("line_buffer"), nullptr);
  EXPECT_NE(find_workload("motion"), nullptr);
  EXPECT_EQ(find_workload("no-such-workload"), nullptr);
  for (const auto name : names) {
    const auto* workload = find_workload(name);
    ASSERT_NE(workload, nullptr);
    EXPECT_EQ(workload->name(), name);
    EXPECT_FALSE(workload->description().empty());
  }
}

TEST(Registry, RejectsDuplicateNames) {
  EXPECT_THROW(register_workload(std::make_unique<BtpcWorkload>()),
               support::ContractError);
  EXPECT_THROW(register_workload(nullptr), support::ContractError);
}

// The ISSUE's registry acceptance test: every registered workload profiles,
// allocates and explores without error.
TEST(Registry, EveryWorkloadProfilesAllocatesExplores) {
  const auto explorer = make_explorer();
  for (const auto name : workload_names()) {
    const auto* workload = find_workload(name);
    ASSERT_NE(workload, nullptr);
    const auto golden = workload->verify(small_options());
    EXPECT_TRUE(golden.passed) << name << ": " << golden.to_string();

    const auto profiled = workload->profile(small_options());
    EXPECT_NO_THROW(profiled.validate()) << name;
    EXPECT_GT(profiled.group_count(), 0u) << name;
    EXPECT_GT(profiled.total_accesses_per_frame(), 0.0) << name;

    const auto best = workload->tuned_variant(profiled);
    EXPECT_NO_THROW(best.validate()) << name;

    const auto eval = explorer.evaluate(best);
    EXPECT_TRUE(eval.feasible) << name << ": " << eval.to_string();
    EXPECT_FALSE(eval.allocation.onchip.empty()) << name;

    const auto sweep = explorer.explore_allocation_counts(best, {4, 8});
    ASSERT_EQ(sweep.size(), 2u) << name;
    for (const auto& variant : sweep) {
      EXPECT_TRUE(variant.eval.feasible) << name << " / " << variant.label;
    }
  }
}

TEST(Workloads, ProfilesAreDeterministicPerSeed) {
  for (const auto name : workload_names()) {
    const auto* workload = find_workload(name);
    const auto a = workload->profile(small_options());
    const auto b = workload->profile(small_options());
    EXPECT_EQ(a.to_string(), b.to_string()) << name;
  }
}

// Pins the APP1 bytes of the eight profiles a default `explore` run makes
// (default geometry, every roster backend).  Any change to profiling
// semantics — reuse simulation included — shows up here first.
TEST(Workloads, DefaultProfilesArePinned) {
  struct Golden {
    const char* workload;
    std::optional<entropy::Backend> backend;
    std::uint64_t fnv;
  };
  const Golden goldens[] = {
      {"btpc", std::nullopt, 0xff5d2f6646dca5bdull},
      {"hyperspec", std::nullopt, 0xfc5a0fc203e07ee2ull},
      {"line_buffer", std::nullopt, 0x382a44595d018d1eull},
      {"motion", std::nullopt, 0x570357d1c33bf152ull},
      {"btpc", entropy::Backend::kRice, 0x2479b6ac1e3ce3d3ull},
      {"btpc", entropy::Backend::kExpGolomb, 0xf9cecd890c712de1ull},
      {"hyperspec", entropy::Backend::kExpGolomb, 0x1823f8cff3491ae0ull},
      {"hyperspec", entropy::Backend::kRans, 0x82d27de56bb1d1f7ull},
  };
  for (const auto& golden : goldens) {
    WorkloadOptions options;
    options.entropy_backend = golden.backend;
    const auto bytes = persist::serialize(find_workload(golden.workload)->profile(options));
    EXPECT_EQ(persist::fnv1a(bytes.data(), bytes.size()), golden.fnv)
        << golden.workload << "["
        << (golden.backend ? to_string(*golden.backend) : "default") << "]";
  }
}

TEST(Workloads, ReuseCurvesNeverIncreaseWithCapacity) {
  // Small profile frames make row-sized windows simulate fewer words than
  // the register windows; the recorder must drop those rungs rather than
  // report more misses for a larger buffer.
  for (const int size : {64, 128}) {
    WorkloadOptions options;
    options.profile_size = size;
    for (const auto name : workload_names()) {
      const auto app = find_workload(name)->profile(options);
      for (const auto id : app.group_ids()) {
        const auto* reuse = app.reuse_profile(id);
        if (reuse == nullptr) continue;
        for (std::size_t w = 1; w < reuse->windows.size(); ++w) {
          EXPECT_LE(reuse->windows[w].misses_per_frame,
                    reuse->windows[w - 1].misses_per_frame)
              << name << "/" << app.group(id).name << " at profile size " << size
              << ", window " << reuse->windows[w].window_words;
        }
      }
    }
  }
}

TEST(Workloads, BtpcCodecKnobsAreTraversalInvariant) {
  // BtpcCaseOptions no longer hard-codes CodecOptions: an odd tile height
  // must yield the same profile (tiling is bit- and profile-invariant).
  btpc::CodecOptions tiled;
  tiled.tile_rows = 17;
  btpc::CodecOptions level_order;
  level_order.traversal = btpc::Traversal::kLevelOrder;
  const auto base = BtpcWorkload{}.profile(small_options());
  const auto odd_tiles = BtpcWorkload{tiled}.profile(small_options());
  const auto reference = BtpcWorkload{level_order}.profile(small_options());
  EXPECT_EQ(base.to_string(), odd_tiles.to_string());
  EXPECT_EQ(base.to_string(), reference.to_string());
}

// Registry round trips of the two workloads this roster extension added:
// the registered instance must profile/verify exactly like a fresh one.
TEST(Registry, LineBufferRoundTrip) {
  const auto* registered = find_workload("line_buffer");
  ASSERT_NE(registered, nullptr);
  EXPECT_TRUE(registered->verify(small_options()).passed);
  const auto via_registry = registered->profile(small_options());
  const auto direct = LineBufferWorkload{}.profile(small_options());
  EXPECT_EQ(via_registry.to_string(), direct.to_string());

  // The tuned variant applies the line-buffer hierarchy: one extra group
  // (the layer-1 copy buffer), still valid and feasible.
  const auto tuned = registered->tuned_variant(via_registry);
  EXPECT_EQ(tuned.group_count(), via_registry.group_count() + 1);
  EXPECT_NO_THROW(tuned.validate());
  EXPECT_TRUE(tuned.find_group("frame_l1").has_value());
}

TEST(Registry, MotionRoundTrip) {
  const auto* registered = find_workload("motion");
  ASSERT_NE(registered, nullptr);
  EXPECT_TRUE(registered->verify(small_options()).passed);
  const auto via_registry = registered->profile(small_options());
  const auto direct = MotionWorkload{}.profile(small_options());
  EXPECT_EQ(via_registry.to_string(), direct.to_string());
  EXPECT_TRUE(via_registry.find_group("ref_window").has_value());
}

TEST(Registry, MotionReuseLadderSurvivesTheProfileFloor) {
  // Regression: at the floored profile geometry the profiled row must stay
  // strictly wider than the search window, or the window-height line-buffer
  // rung (win_edge * row) would collapse onto the window rung and vanish —
  // and the hierarchy exploration would never see the vertical-overlap
  // reuse level.
  WorkloadOptions tiny;
  tiny.profile_size = 32;  // below the floor; must be rounded up, not obeyed
  const MotionWorkload workload;
  EXPECT_GT(workload.profile_edge(tiny), 32);
  const auto app = workload.profile(tiny);
  const auto* reuse = app.reuse_profile(*app.find_group("ref_frame"));
  ASSERT_NE(reuse, nullptr);
  ASSERT_GE(reuse->windows.size(), 5u);
  // The top rung is the declared-width line buffer, above the window rung.
  constexpr std::uint64_t kWinArea = 32 * 32;
  EXPECT_EQ(reuse->windows[reuse->windows.size() - 2].window_words, kWinArea);
  EXPECT_GT(reuse->windows.back().window_words, kWinArea);
}

TEST(MultiWorkload, MergePreservesTotalsAndReuse) {
  const auto btpc = find_workload("btpc")->profile(small_options());
  const auto hyper = find_workload("hyperspec")->profile(small_options());
  const auto merged =
      core::merge_applications({{"btpc", &btpc}, {"hyperspec", &hyper}}, "shared");

  EXPECT_EQ(merged.group_count(), btpc.group_count() + hyper.group_count());
  EXPECT_EQ(merged.body_count(), btpc.body_count() + hyper.body_count());
  EXPECT_NEAR(merged.total_accesses_per_frame(),
              btpc.total_accesses_per_frame() + hyper.total_accesses_per_frame(), 1e-6);

  // Same-named arrays of the two codecs (out_buf, bit_accum) stay distinct.
  const auto btpc_out = merged.find_group("btpc.out_buf");
  const auto hyper_out = merged.find_group("hyperspec.out_buf");
  ASSERT_TRUE(btpc_out.has_value());
  ASSERT_TRUE(hyper_out.has_value());
  EXPECT_NE(*btpc_out, *hyper_out);

  // Reuse profiles travel with their groups.
  const auto cube = merged.find_group("hyperspec.cube");
  ASSERT_TRUE(cube.has_value());
  const auto* merged_reuse = merged.reuse_profile(*cube);
  const auto* original_reuse = hyper.reuse_profile(*hyper.find_group("cube"));
  ASSERT_NE(merged_reuse, nullptr);
  ASSERT_NE(original_reuse, nullptr);
  ASSERT_EQ(merged_reuse->windows.size(), original_reuse->windows.size());
  for (std::size_t i = 0; i < merged_reuse->windows.size(); ++i) {
    EXPECT_EQ(merged_reuse->windows[i].window_words,
              original_reuse->windows[i].window_words);
    EXPECT_DOUBLE_EQ(merged_reuse->windows[i].misses_per_frame,
                     original_reuse->windows[i].misses_per_frame);
  }
}

TEST(MultiWorkload, MergeRejectsBadInputs) {
  const auto app = find_workload("hyperspec")->profile(small_options());
  EXPECT_THROW((void)core::merge_applications({}, "empty"), support::ContractError);
  EXPECT_THROW((void)core::merge_applications({{"a", nullptr}}, "null"),
               support::ContractError);
  EXPECT_THROW((void)core::merge_applications({{"", &app}}, "unlabelled"),
               support::ContractError);
  EXPECT_THROW((void)core::merge_applications({{"a", &app}, {"a", &app}}, "dup"),
               support::ContractError);
}

TEST(MultiWorkload, SharedSweepProducesAParetoFront) {
  const auto explorer = make_explorer();
  const auto* btpc_workload = find_workload("btpc");
  const auto* hyper_workload = find_workload("hyperspec");
  const auto btpc = btpc_workload->tuned_variant(btpc_workload->profile(small_options()));
  const auto hyper = hyper_workload->profile(small_options());

  const std::vector<std::pair<std::string, const ir::Application*>> apps = {
      {"btpc", &btpc}, {"hyperspec", &hyper}};
  const auto variants = explorer.explore_shared_allocation_counts(apps, {6, 10, 14});
  ASSERT_EQ(variants.size(), 3u);
  bool any_feasible = false;
  for (const auto& variant : variants) any_feasible |= variant.eval.feasible;
  EXPECT_TRUE(any_feasible);
  EXPECT_FALSE(core::pareto_front(variants).empty());

  // The shared organization serves the union of both access patterns: it
  // cannot be cheaper than either workload alone.
  const auto solo = explorer.evaluate(hyper);
  const auto shared = explorer.evaluate_shared(apps);
  EXPECT_GE(shared.summary.onchip_area_mm2 + 1e-9, solo.summary.onchip_area_mm2);
  EXPECT_GE(shared.summary.offchip_power_mw + 1e-9, solo.summary.offchip_power_mw);

  // Deterministic: the same merge evaluates to the same triple.
  const auto again = explorer.evaluate_shared(apps);
  EXPECT_DOUBLE_EQ(shared.summary.onchip_area_mm2, again.summary.onchip_area_mm2);
  EXPECT_DOUBLE_EQ(shared.summary.onchip_power_mw, again.summary.onchip_power_mw);
  EXPECT_DOUBLE_EQ(shared.summary.offchip_power_mw, again.summary.offchip_power_mw);
}

// The tentpole reconciliation property: for random allocation counts over
// all four registered workloads, summing the per-workload marginal triples
// in order reproduces the merged `evaluate_shared` triple *bit-exactly* —
// attribution neither loses nor invents cost, and it never perturbs the
// evaluation it explains.
TEST(MultiWorkload, PerWorkloadBreakdownReconcilesBitExactly) {
  const auto explorer = make_explorer();

  // All four workloads' tuned models, kept alive for the shared pricing.
  std::vector<std::pair<std::string, ir::Application>> tuned;
  for (const auto name : workload_names()) {
    const auto* workload = find_workload(name);
    tuned.emplace_back(std::string(name),
                       workload->tuned_variant(workload->profile(small_options())));
  }
  ASSERT_GE(tuned.size(), 4u);
  std::vector<std::pair<std::string, const ir::Application*>> apps;
  for (const auto& [label, app] : tuned) apps.emplace_back(label, &app);

  support::Rng rng(0xC057);
  for (int trial = 0; trial < 4; ++trial) {
    core::ExplorerOptions options;
    // Random memory count across the sweep range; 0 = auto-pick, also legal.
    options.allocation.onchip_memories =
        trial == 0 ? 0 : 4 + static_cast<int>(rng.below(11));
    SCOPED_TRACE("onchip_memories = " +
                 std::to_string(options.allocation.onchip_memories));

    const auto shared = explorer.evaluate_shared_per_workload(apps, options);
    ASSERT_EQ(shared.per_workload.size(), apps.size());

    // (1) The merged part is bit-identical to the plain shared evaluation.
    const auto plain = explorer.evaluate_shared(apps, options);
    EXPECT_EQ(shared.merged.summary.onchip_area_mm2, plain.summary.onchip_area_mm2);
    EXPECT_EQ(shared.merged.summary.onchip_power_mw, plain.summary.onchip_power_mw);
    EXPECT_EQ(shared.merged.summary.offchip_power_mw, plain.summary.offchip_power_mw);
    EXPECT_EQ(shared.merged.feasible, plain.feasible);

    // (2) Marginals sum to the merged triple, bit for bit.
    memlib::CostSummary sum;
    for (std::size_t i = 0; i < shared.per_workload.size(); ++i) {
      EXPECT_EQ(shared.per_workload[i].label, apps[i].first);
      sum += shared.per_workload[i].marginal;
    }
    EXPECT_EQ(sum.onchip_area_mm2, shared.merged.summary.onchip_area_mm2);
    EXPECT_EQ(sum.onchip_power_mw, shared.merged.summary.onchip_power_mw);
    EXPECT_EQ(sum.offchip_power_mw, shared.merged.summary.offchip_power_mw);

    // (3) The final cumulative prefix IS the merged triple, and the prefix
    // pricing is monotone: joining workloads never makes the restricted
    // organization cheaper.
    const auto& last = shared.per_workload.back().cumulative;
    EXPECT_EQ(last.onchip_area_mm2, shared.merged.summary.onchip_area_mm2);
    EXPECT_EQ(last.onchip_power_mw, shared.merged.summary.onchip_power_mw);
    EXPECT_EQ(last.offchip_power_mw, shared.merged.summary.offchip_power_mw);
    for (std::size_t i = 1; i < shared.per_workload.size(); ++i) {
      const auto& prev = shared.per_workload[i - 1].cumulative;
      const auto& curr = shared.per_workload[i].cumulative;
      EXPECT_GE(curr.onchip_area_mm2, prev.onchip_area_mm2);
      EXPECT_GE(curr.offchip_power_mw, prev.offchip_power_mw);
    }
  }
}

TEST(VerifyReport, CarriesStageAndDetail) {
  const auto ok = VerifyReport::pass();
  EXPECT_TRUE(ok.passed);
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.to_string(), "ok");

  const auto bad = VerifyReport::fail("round-trip", "pixel 7 differs");
  EXPECT_FALSE(bad.passed);
  EXPECT_FALSE(static_cast<bool>(bad));
  EXPECT_EQ(bad.stage, "round-trip");
  EXPECT_EQ(bad.to_string(), "failed at round-trip: pixel 7 differs");
}

// Degradation doubles for the shared sweep: one workload whose golden check
// fails, one whose profiling throws.  Neither may take the sweep down.
class FailingVerifyWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "failing-verify"; }
  [[nodiscard]] std::string_view description() const override { return "test double"; }
  [[nodiscard]] ir::Application profile(const WorkloadOptions&) const override {
    return ir::Application("never-profiled");
  }
  [[nodiscard]] VerifyReport verify(const WorkloadOptions&) const override {
    return VerifyReport::fail("round-trip", "deliberately broken kernel");
  }
};

class ThrowingProfileWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "throwing-profile"; }
  [[nodiscard]] std::string_view description() const override { return "test double"; }
  [[nodiscard]] ir::Application profile(const WorkloadOptions&) const override {
    DTSE_CHECK(false, "profiling explodes");
    return ir::Application("unreachable");
  }
  [[nodiscard]] VerifyReport verify(const WorkloadOptions&) const override {
    return VerifyReport::pass();
  }
};

TEST(SharedSweep, OnePoisonedWorkloadDoesNotAbortTheSweep) {
  const auto explorer = make_explorer();
  const FailingVerifyWorkload failing;
  const ThrowingProfileWorkload throwing;
  const std::vector<const Workload*> roster = {
      find_workload("hyperspec"), &failing, &throwing, find_workload("line_buffer"),
      nullptr};

  const auto result =
      run_shared_sweep(roster, small_options(), explorer, {6, 10});

  ASSERT_EQ(result.survivors.size(), 2u);
  EXPECT_EQ(result.survivors[0], "hyperspec");
  EXPECT_EQ(result.survivors[1], "line_buffer");
  ASSERT_EQ(result.failures.size(), 3u);
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.failures[0].name, "failing-verify");
  EXPECT_EQ(result.failures[0].stage, "verify");
  EXPECT_NE(result.failures[0].detail.find("deliberately broken"), std::string::npos);
  EXPECT_EQ(result.failures[1].name, "throwing-profile");
  EXPECT_EQ(result.failures[1].stage, "profile");
  EXPECT_NE(result.failures[1].detail.find("profiling explodes"), std::string::npos);
  EXPECT_EQ(result.failures[2].stage, "lookup");

  // The sweep over the survivors still completed and is usable.
  ASSERT_EQ(result.variants.size(), 2u);
  bool any_feasible = false;
  for (const auto& variant : result.variants) any_feasible |= variant.eval.feasible;
  EXPECT_TRUE(any_feasible);

  // A healthy roster reports complete() with no failures.
  const auto healthy = run_shared_sweep({find_workload("hyperspec")}, small_options(),
                                        explorer, {8});
  EXPECT_TRUE(healthy.complete());
  ASSERT_EQ(healthy.survivors.size(), 1u);

  // All-poisoned rosters are the only fatal case.
  EXPECT_THROW((void)run_shared_sweep({&failing}, small_options(), explorer, {8}),
               support::ContractError);
  EXPECT_THROW((void)run_shared_sweep({}, small_options(), explorer, {8}),
               support::ContractError);
}

}  // namespace
}  // namespace dtse::workloads
