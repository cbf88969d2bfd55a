#include "feedback_queries.hpp"

#include <cstring>
#include <exception>
#include <numeric>
#include <utility>

#include "explore_pipeline.hpp"
#include "persist/app_container.hpp"
#include "persist/fnv.hpp"

namespace perfbench {

namespace {

/// SplitMix64: a tiny, portable seeded stream (same draws on every host).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& items, SplitMix64& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.between(0, i - 1)]);
  }
}

}  // namespace

std::vector<QueryModel> prepare_query_models(
    const dtse::workloads::WorkloadOptions& options) {
  std::vector<QueryModel> tuned;
  std::vector<QueryModel> profiled;
  std::vector<QueryModel> variants;  // as-profiled models that tuning changes
  for (const auto name : dtse::workloads::workload_names()) {
    const auto* workload = dtse::workloads::find_workload(name);
    auto app = workload->profile(options);
    auto best = workload->tuned_variant(app);
    const bool changed = dtse::persist::serialize(best) != dtse::persist::serialize(app);
    tuned.push_back({std::string(name), std::move(best)});
    profiled.push_back({std::string(name) + ":profiled", app});
    if (changed) variants.push_back({std::string(name) + ":profiled", std::move(app)});
  }
  const auto merged = [](const std::vector<QueryModel>& models, std::string label) {
    std::vector<std::pair<std::string, const dtse::ir::Application*>> apps;
    for (const auto& model : models) apps.emplace_back(model.label, &model.app);
    return QueryModel{label, dtse::core::merge_applications(apps, label)};
  };
  std::vector<QueryModel> models;
  models.push_back(merged(tuned, "shared"));
  models.push_back(merged(profiled, "shared:profiled"));
  for (auto& model : tuned) models.push_back(std::move(model));
  for (auto& model : variants) models.push_back(std::move(model));
  return models;
}

std::vector<Query> draw_queries(std::size_t model_count, std::uint64_t seed,
                                const dtse::core::ExplorerOptions& base) {
  constexpr int kMinMemories = 4;
  constexpr int kMaxMemories = 14;
  // Storage budget in permille of the real-time budget: 58-100 % cut into
  // strata; every (model, memory count, stratum) cell gets one query whose
  // budget the seed picks inside the stratum.
  constexpr std::uint64_t kLowPermille = 580;
  constexpr std::uint64_t kHighPermille = 1000;
  constexpr std::uint64_t kBudgetStrata = 3;
  SplitMix64 rng(seed);
  std::vector<Query> queries;
  for (std::size_t model = 0; model < model_count; ++model) {
    for (int memories = kMinMemories; memories <= kMaxMemories; ++memories) {
      for (std::uint64_t s = 0; s < kBudgetStrata; ++s) {
        const auto lo = kLowPermille + (kHighPermille - kLowPermille) * s / kBudgetStrata;
        const auto hi = kLowPermille + (kHighPermille - kLowPermille) * (s + 1) / kBudgetStrata;
        Query query;
        query.model = model;
        query.options = base;
        query.options.allocation.onchip_memories = memories;
        query.options.storage_budget_cycles =
            base.real_time_budget_cycles * rng.between(lo, hi) / 1000;
        queries.push_back(query);
      }
    }
  }
  return queries;
}

RoundResult run_round(const std::vector<QueryModel>& models,
                      const std::vector<Query>& queries, std::uint64_t seed,
                      std::uint64_t round, const dtse::core::Explorer& explorer,
                      const dtse::alloc::MemoryAllocator& allocator, Tracer* tracer) {
  std::vector<std::size_t> order(queries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  SplitMix64 rng(seed ^ (0xD1B54A32D192ED03ULL * (round + 1)));
  shuffle(order, rng);

  RoundResult out;
  std::vector<dtse::core::Evaluation> evals(queries.size());
  const auto round_start = Clock::now();
  for (const auto index : order) {
    const auto& query = queries[index];
    const auto& model = models[query.model];
    const auto start = Clock::now();
    try {
      if (tracer == nullptr) {
        evals[index] = explorer.evaluate(model.app, query.options);
      } else {
        Span span(tracer, "core", "core.query/" + model.label);
        evals[index] = traced_evaluate(allocator, model.app, query.options, *tracer);
      }
    } catch (const std::exception& e) {
      evals[index] = dtse::core::Evaluation{};
      evals[index].error = e.what();
    }
    out.latency_ms.push_back(seconds_since(start) * 1e3);
  }
  out.wall_s = seconds_since(round_start);

  dtse::persist::Fnv1a hash;
  for (const auto& eval : evals) {
    if (!eval.error.empty()) ++out.failed;
    if (eval.feasible) {
      out.feasible_costs.push_back(dtse::memlib::CostWeights{}.scalarize(eval.summary));
    } else {
      ++out.infeasible;
    }
    hash.update_u8(eval.feasible ? 1 : 0);
    hash.update_string(eval.error);
    for (const double v : {eval.summary.onchip_area_mm2, eval.summary.onchip_power_mw,
                           eval.summary.offchip_power_mw}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      hash.update_u64(bits);
    }
    hash.update_u64(eval.spare_cycles);
  }
  out.fingerprint = hash.digest();
  return out;
}

}  // namespace perfbench
