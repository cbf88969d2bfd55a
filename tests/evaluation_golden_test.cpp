// Pinned fingerprints of `Explorer::evaluate` on the default exploration
// models.  `explore` is byte-diffed only against itself, so without these
// goldens a change to scbd or alloc could move every answer the oracle gives
// and still pass.  Each fingerprint covers what a designer reads off an
// evaluation: feasibility, the cost triple, the spare cycles, each body's
// budget and conflict cost, and the application-wide conflict graph, all as
// exact bit patterns.  Any intended change to the feedback must re-pin these
// values and explain why.  The same models also check that MACP, the
// scheduler and the allocator place every group by the one on/off-chip rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/explorer.hpp"
#include "entropy/entropy_coder.hpp"
#include "graph/macp.hpp"
#include "persist/fnv.hpp"
#include "scbd/flow_graph_balancing.hpp"
#include "workloads/workload.hpp"

namespace dtse::core {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void hash_evaluation(persist::Fnv1a& hash, const Evaluation& eval) {
  hash.update_u8(eval.feasible ? 1 : 0);
  hash.update_u64(bits_of(eval.summary.onchip_area_mm2));
  hash.update_u64(bits_of(eval.summary.onchip_power_mw));
  hash.update_u64(bits_of(eval.summary.offchip_power_mw));
  hash.update_u64(eval.spare_cycles);
  for (const auto& body : eval.scbd.bodies) {
    hash.update_u64(body.budget_cycles);
    hash.update_u64(bits_of(body.schedule.conflict_cost));
  }
  hash.update_u64(bits_of(eval.scbd.conflict_cost));
  for (const auto& edge : eval.scbd.conflicts.edges()) {
    hash.update_u64(edge.a.index());
    hash.update_u64(edge.b.index());
    hash.update_u64(bits_of(edge.weight));
  }
}

/// The tuned models `explore` evaluates by default: the registered workloads
/// followed by the entropy-roster variants, labelled as `explore` labels them.
std::vector<std::pair<std::string, ir::Application>> default_tuned_models() {
  struct Model {
    const char* workload;
    std::optional<entropy::Backend> backend;
  };
  const Model models[] = {
      {"btpc", std::nullopt},
      {"hyperspec", std::nullopt},
      {"line_buffer", std::nullopt},
      {"motion", std::nullopt},
      {"btpc", entropy::Backend::kRice},
      {"btpc", entropy::Backend::kExpGolomb},
      {"hyperspec", entropy::Backend::kExpGolomb},
      {"hyperspec", entropy::Backend::kRans},
  };
  std::vector<std::pair<std::string, ir::Application>> tuned;
  for (const auto& model : models) {
    workloads::WorkloadOptions options;
    options.entropy_backend = model.backend;
    const auto* workload = workloads::find_workload(model.workload);
    std::string label = model.workload;
    if (model.backend) {
      label.append("[").append(entropy::to_string(*model.backend)).append("]");
    }
    tuned.emplace_back(label, workload->tuned_variant(workload->profile(options)));
  }
  return tuned;
}

const std::vector<std::pair<std::string, ir::Application>>& tuned_models() {
  static const auto models = default_tuned_models();
  return models;
}

TEST(EvaluationGoldens, DefaultTunedModelsArePinned) {
  const std::pair<const char*, std::uint64_t> goldens[] = {
      {"btpc", 0x44577b243b80e9cbull},
      {"hyperspec", 0xc28dfaa63769b23dull},
      {"line_buffer", 0xe04fd38601925581ull},
      {"motion", 0x561ff0a8880bb36bull},
      {"btpc[rice]", 0x0ff60da4d7731287ull},
      {"btpc[expgolomb]", 0x8cea7da580e53fe9ull},
      {"hyperspec[expgolomb]", 0x5104c35071762e13ull},
      {"hyperspec[rans]", 0x8c6444bfc0eb393aull},
  };
  const Explorer explorer{memlib::MemoryLibrary{}};
  const auto& models = tuned_models();
  ASSERT_EQ(models.size(), std::size(goldens));
  for (std::size_t i = 0; i < models.size(); ++i) {
    const auto& [label, app] = models[i];
    ASSERT_EQ(label, goldens[i].first);
    persist::Fnv1a hash;
    ExplorerOptions options;
    options.parallelism = 1;
    const std::uint64_t full = options.real_time_budget_cycles;
    for (const std::uint64_t budget : {full, full * 75 / 100, full * 58 / 100}) {
      for (const int memories : {4, 8, 14}) {
        options.storage_budget_cycles = budget;
        options.allocation.onchip_memories = memories;
        hash_evaluation(hash, explorer.evaluate(app, options));
      }
    }
    EXPECT_EQ(hash.digest(), goldens[i].second)
        << label << ": 0x" << persist::to_hex(hash.digest());
  }
}

TEST(EvaluationGoldens, SharedModelIsPinned) {
  const std::pair<int, std::uint64_t> goldens[] = {{6, 0x2e22673a9e17f7d3ull},
                                                      {14, 0xf45fbebca0f91efaull}};
  std::vector<std::pair<std::string, const ir::Application*>> apps;
  for (const auto& [label, app] : tuned_models()) apps.emplace_back(label, &app);
  const auto merged = merge_applications(apps, "shared");
  const Explorer explorer{memlib::MemoryLibrary{}};
  for (const auto& [memories, golden] : goldens) {
    ExplorerOptions options;
    options.parallelism = 1;
    options.allocation.onchip_memories = memories;
    persist::Fnv1a hash;
    hash_evaluation(hash, explorer.evaluate(merged, options));
    EXPECT_EQ(hash.digest(), golden)
        << memories << " memories: 0x" << persist::to_hex(hash.digest());
  }
}

/// Checks that every layer places each group of `app` by the one rule: the
/// allocator's on/off-chip split, and the access latency MACP and the
/// scheduler see for a one-read probe body on a copy of the group.
void expect_one_placement(const ir::Application& app, const std::string& label) {
  const auto [onchip, offchip] = alloc::MemoryAllocator::partition_groups(app);
  EXPECT_EQ(onchip.size() + offchip.size(), app.group_count()) << label;
  for (const auto id : app.group_ids()) {
    const auto& group = app.group(id);
    const std::string where = label + "/" + group.name;
    const bool off = graph::presumed_offchip(group);
    EXPECT_EQ(std::find(offchip.begin(), offchip.end(), id) != offchip.end(), off) << where;
    EXPECT_EQ(std::find(onchip.begin(), onchip.end(), id) != onchip.end(), !off) << where;

    ir::Application probe("probe");
    ir::LoopBody body;
    body.name = "read";
    body.accesses.push_back({probe.add_group(group), ir::AccessKind::kRead, 1.0});
    const auto body_id = probe.add_body(body);
    const double cycles = off ? graph::kOffchipAccessCycles : graph::kOnchipAccessCycles;
    EXPECT_EQ(graph::analyze_macp(probe).macp_cycles, cycles) << where;
    EXPECT_EQ(scbd::BodyScheduler(probe, body_id).min_budget(),
              static_cast<std::uint64_t>(cycles))
        << where;
  }
}

// MACP latencies, the scheduler's off-chip flags and the allocator's split
// all come from `graph::presumed_offchip`: they agree on every group of the
// default models, and a forced location beats the size threshold.
TEST(PlacementRule, EveryLayerPlacesEveryGroupAlike) {
  for (const auto& [label, app] : tuned_models()) expect_one_placement(app, label);

  ir::Application forced("forced");
  const auto add = [&forced](const char* name, std::uint64_t words,
                             std::optional<memlib::Location> location) {
    return forced.add_group({name, words, 8, location});
  };
  const auto big = add("big", std::uint64_t{1} << 20, std::nullopt);
  const auto at = add("at_threshold", graph::kOffchipThresholdWords, std::nullopt);
  const auto below = add("below_threshold", graph::kOffchipThresholdWords - 1, std::nullopt);
  const auto big_on = add("big_forced_on", std::uint64_t{1} << 20, memlib::Location::kOnChip);
  const auto small_off = add("small_forced_off", 16, memlib::Location::kOffChip);
  const auto small_on = add("small_forced_on", 16, memlib::Location::kOnChip);
  const auto [onchip, offchip] = alloc::MemoryAllocator::partition_groups(forced);
  EXPECT_EQ(onchip, (std::vector<ir::BasicGroupId>{below, big_on, small_on}));
  EXPECT_EQ(offchip, (std::vector<ir::BasicGroupId>{big, at, small_off}));
  expect_one_placement(forced, "forced");
}

}  // namespace
}  // namespace dtse::core
