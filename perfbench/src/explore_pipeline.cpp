#include "explore_pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "entropy/entropy_coder.hpp"
#include "obs/telemetry.hpp"
#include "persist/fnv.hpp"
#include "support/parallel.hpp"
#include "workloads/profile_store.hpp"

namespace perfbench {

namespace dc = dtse::core;
namespace dw = dtse::workloads;

LayerCounters LayerCounters::read() {
  auto& registry = dtse::obs::TelemetryRegistry::global();
  const auto value = [&registry](std::string_view name) {
    return registry.counter(name).value();
  };
  LayerCounters c;
  c.trace_events = value("recorder.recorded_events");
  c.reuse_misses = value("recorder.reuse_misses");
  c.cache_hits = value("profile_cache.hits");
  c.cache_lookups = c.cache_hits + value("profile_cache.misses");
  c.sa_moves = value("solver.sa.moves");
  c.sa_accepted = value("solver.sa.accepted");
  c.bb_nodes = value("solver.bb.nodes");
  c.bb_pruned = value("solver.bb.pruned");
  return c;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  trace_events += o.trace_events;
  reuse_misses += o.reuse_misses;
  cache_hits += o.cache_hits;
  cache_lookups += o.cache_lookups;
  sa_moves += o.sa_moves;
  sa_accepted += o.sa_accepted;
  bb_nodes += o.bb_nodes;
  bb_pruned += o.bb_pruned;
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.trace_events = trace_events - o.trace_events;
  d.reuse_misses = reuse_misses - o.reuse_misses;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_lookups = cache_lookups - o.cache_lookups;
  d.sa_moves = sa_moves - o.sa_moves;
  d.sa_accepted = sa_accepted - o.sa_accepted;
  d.bb_nodes = bb_nodes - o.bb_nodes;
  d.bb_pruned = bb_pruned - o.bb_pruned;
  return d;
}

dc::Evaluation traced_evaluate(const dtse::alloc::MemoryAllocator& allocator,
                               const dtse::ir::Application& app,
                               const dc::ExplorerOptions& options, Tracer& tracer) {
  dc::Evaluation eval;
  auto scbd_options = options.scbd;
  scbd_options.global_budget_cycles = options.storage_budget_cycles;
  {
    Span span(&tracer, "scbd", "scbd.distribute_budget/" + app.name());
    eval.scbd = dtse::scbd::distribute_budget(app, scbd_options);
  }
  auto alloc_options = options.allocation;
  alloc_options.frame_cycles = options.real_time_budget_cycles;
  alloc_options.solver.cancel = options.cancel;
  {
    Span span(&tracer, "alloc", "alloc.allocate/" + app.name());
    eval.allocation = allocator.allocate(app, eval.scbd.conflicts, alloc_options);
  }
  eval.summary = eval.allocation.summary;
  eval.spare_cycles = eval.scbd.spare_cycles(options.real_time_budget_cycles);
  eval.feasible = eval.scbd.feasible && eval.allocation.feasible;
  return eval;
}

namespace {

/// FNV-1a over every point's section, label, feasibility, error and the bit
/// patterns of its cost triple and spare cycles.
std::uint64_t fingerprint_points(const std::vector<dtse::obs::ReportPoint>& points) {
  dtse::persist::Fnv1a hash;
  const auto update_double = [&hash](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    hash.update_u64(bits);
  };
  for (const auto& point : points) {
    hash.update_string(point.section);
    hash.update_string(point.label);
    hash.update_u8(point.feasible ? 1 : 0);
    hash.update_u8(point.timed_out ? 1 : 0);
    hash.update_string(point.error);
    update_double(point.onchip_area_mm2);
    update_double(point.onchip_power_mw);
    update_double(point.offchip_power_mw);
    hash.update_u64(point.spare_cycles);
  }
  return hash.digest();
}

struct BackendSweep {
  const char* workload;
  std::vector<dtse::entropy::Backend> backends;
};

/// The entropy-coder roster examples/explore sweeps after the defaults.
const std::vector<BackendSweep>& roster() {
  static const std::vector<BackendSweep> list = {
      {"btpc", {dtse::entropy::Backend::kRice, dtse::entropy::Backend::kExpGolomb}},
      {"hyperspec", {dtse::entropy::Backend::kExpGolomb, dtse::entropy::Backend::kRans}},
  };
  return list;
}

template <typename Point>
std::vector<dc::Evaluation> evals_of(std::vector<Point> points) {
  std::vector<dc::Evaluation> evals;
  evals.reserve(points.size());
  for (auto& point : points) evals.push_back(std::move(point.eval));
  return evals;
}

/// State of one pipeline run.
class Pipeline {
 public:
  Pipeline(const ExploreContext& context, dtse::persist::ProfileCache& cache,
           Tracer* tracer)
      : ctx_(context), cache_(cache), tracer_(tracer) {}

  ExploreRun run();

 private:
  /// Golden verify; false (and counted as failed) when it does not pass.
  bool verify(const dw::Workload& workload, const dw::WorkloadOptions& options,
              const std::string& label);
  std::optional<dtse::ir::Application> profile(const dw::Workload& workload,
                                               const dw::WorkloadOptions& options,
                                               const std::string& label);
  dtse::ir::Application tune(const dw::Workload& workload,
                             const dtse::ir::Application& profiled,
                             const std::string& label);

  /// The points of one library sweep, evaluated by the benchmark itself on
  /// the same number of workers (traced runs only).
  std::vector<dc::Evaluation> traced_sweep(const std::string& tag,
                                           const dtse::ir::Application& app,
                                           const std::vector<dc::ExplorerOptions>& points);
  dc::Evaluation evaluate(const dtse::ir::Application& app, const std::string& label);
  void add_point(const std::string& section, const std::string& label,
                 const dc::Evaluation& eval);

  const ExploreContext& ctx_;
  dtse::persist::ProfileCache& cache_;
  Tracer* tracer_;
  ExploreRun out_;
};

bool Pipeline::verify(const dw::Workload& workload, const dw::WorkloadOptions& options,
                      const std::string& label) {
  Span span(tracer_, "workloads", "workloads.verify/" + label);
  ++out_.attempted;
  const auto golden = workload.verify(options);
  out_.report.workloads.push_back({label, golden.passed, golden.to_string()});
  if (!golden.passed) ++out_.failed;
  return golden.passed;
}

std::optional<dtse::ir::Application> Pipeline::profile(const dw::Workload& workload,
                                                       const dw::WorkloadOptions& options,
                                                       const std::string& label) {
  ++out_.attempted;
  try {
    if (tracer_ == nullptr) return dw::profile_cached(workload, options, &cache_);
    // profile_cached, one layer call at a time.
    const auto key = dw::profile_cache_key(workload.name(), options);
    {
      const auto before = LayerCounters::read();
      Span span(tracer_, "persist", "persist.load/" + label);
      auto cached = cache_.load(key);
      out_.load_counters += LayerCounters::read() - before;
      if (cached) return cached;
    }
    std::optional<dtse::ir::Application> profiled;
    {
      const auto before = LayerCounters::read();
      Span span(tracer_, "trace", "trace.profile/" + label);
      profiled = workload.profile(options);
      out_.profile_counters += LayerCounters::read() - before;
    }
    {
      Span span(tracer_, "persist", "persist.store/" + label);
      cache_.store(key, *profiled);
    }
    return profiled;
  } catch (const std::exception&) {
    ++out_.failed;
    return std::nullopt;
  }
}

dtse::ir::Application Pipeline::tune(const dw::Workload& workload,
                                     const dtse::ir::Application& profiled,
                                     const std::string& label) {
  Span span(tracer_, "workloads", "workloads.tune/" + label);
  return workload.tuned_variant(profiled);
}

std::vector<dc::Evaluation> Pipeline::traced_sweep(
    const std::string& tag, const dtse::ir::Application& app,
    const std::vector<dc::ExplorerOptions>& points) {
  const auto before = LayerCounters::read();
  std::vector<dc::Evaluation> evals(points.size());
  std::vector<double> latency_ms(points.size());
  {
    Span sweep_span(tracer_, "core", "core.sweep/" + tag);
    const int parent = sweep_span.id();
    dtse::support::parallel_for(points.size(), ctx_.options.parallelism, [&](std::size_t i) {
      Span point(tracer_, "core", "core.point/" + tag, parent);
      try {
        evals[i] = traced_evaluate(*ctx_.allocator, app, points[i], *tracer_);
      } catch (const std::exception& e) {
        evals[i] = dc::Evaluation{};
        evals[i].error = e.what();
      }
      latency_ms[i] = point.elapsed_ms();
    });
  }
  out_.alloc_counters += LayerCounters::read() - before;
  out_.eval_latency_ms.insert(out_.eval_latency_ms.end(), latency_ms.begin(),
                              latency_ms.end());
  return evals;
}

dc::Evaluation Pipeline::evaluate(const dtse::ir::Application& app,
                                  const std::string& label) {
  const auto before = LayerCounters::read();
  const auto start = Clock::now();
  dc::Evaluation eval;
  if (tracer_ == nullptr) {
    eval = ctx_.explorer->evaluate(app, ctx_.options);
  } else {
    Span span(tracer_, "core", "core.point/roster/" + label);
    eval = traced_evaluate(*ctx_.allocator, app, ctx_.options, *tracer_);
  }
  out_.eval_latency_ms.push_back(seconds_since(start) * 1e3);
  out_.alloc_counters += LayerCounters::read() - before;
  return eval;
}

void Pipeline::add_point(const std::string& section, const std::string& label,
                         const dc::Evaluation& eval) {
  ++out_.attempted;
  if (!eval.error.empty() || eval.timed_out) ++out_.failed;
  if (!eval.feasible) ++out_.infeasible;
  out_.costs.push_back(dtse::memlib::CostWeights{}.scalarize(eval.summary));
  out_.report.add_point(section, label, eval);
}

ExploreRun Pipeline::run() {
  const auto& explorer = *ctx_.explorer;
  const auto& options = ctx_.options;
  const std::uint64_t full = options.real_time_budget_cycles;
  const std::vector<std::uint64_t> budgets = {full, full * 75 / 100, full * 58 / 100};
  const std::vector<int> counts = {4, 5, 8, 10, 14};
  const std::vector<int> shared_counts = {4, 6, 8, 10, 12, 14};

  const auto budget_points = [&options](const std::vector<std::uint64_t>& list) {
    std::vector<dc::ExplorerOptions> points;
    for (const auto budget : list) {
      points.push_back(options);
      points.back().storage_budget_cycles = budget;
    }
    return points;
  };
  const auto count_points = [&options](const std::vector<int>& list) {
    std::vector<dc::ExplorerOptions> points;
    for (const auto count : list) {
      points.push_back(options);
      points.back().allocation.onchip_memories = count;
    }
    return points;
  };
  const auto count_label = [](int count) {
    return std::to_string(count) + " on-chip memories";
  };

  std::vector<std::pair<std::string, dtse::ir::Application>> tuned;
  for (const auto name : dw::workload_names()) {
    const auto* workload = dw::find_workload(name);
    const std::string label(name);
    if (!verify(*workload, ctx_.workload_options, label)) continue;
    const auto profiled = profile(*workload, ctx_.workload_options, label);
    if (!profiled) continue;
    {
      Span span(tracer_, "graph", "graph.macp/" + label);
      (void)explorer.analyze_critical_path(*profiled, options);
    }
    auto best = tune(*workload, *profiled, label);

    const auto budget_evals =
        tracer_ != nullptr
            ? traced_sweep("cycle_budget/" + label, best, budget_points(budgets))
            : evals_of(explorer.explore_cycle_budgets(best, budgets, options));
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      add_point("cycle_budget/" + label, std::to_string(budgets[i]), budget_evals[i]);
    }

    const auto alloc_evals =
        tracer_ != nullptr ? traced_sweep("alloc/" + label, best, count_points(counts))
                           : evals_of(explorer.explore_allocation_counts(best, counts, options));
    for (std::size_t i = 0; i < counts.size(); ++i) {
      add_point("alloc/" + label, count_label(counts[i]), alloc_evals[i]);
    }
    tuned.emplace_back(label, std::move(best));
  }

  // Entropy-coder roster: each alternative backend is its own tuned point.
  for (const auto& entry : roster()) {
    const auto* workload = dw::find_workload(entry.workload);
    const bool in_run = std::any_of(tuned.begin(), tuned.end(), [&](const auto& t) {
      return t.first == entry.workload;
    });
    if (workload == nullptr || !in_run) continue;
    for (const auto backend : entry.backends) {
      auto variant_options = ctx_.workload_options;
      variant_options.entropy_backend = backend;
      const std::string label = std::string(entry.workload) + "[" +
                                std::string(dtse::entropy::to_string(backend)) + "]";
      if (!verify(*workload, variant_options, label)) continue;
      const auto profiled = profile(*workload, variant_options, label);
      if (!profiled) continue;
      auto best = tune(*workload, *profiled, label);
      add_point("roster/" + std::string(entry.workload), label, evaluate(best, label));
      tuned.emplace_back(label, std::move(best));
    }
  }

  if (tuned.size() > 1) {
    std::vector<std::pair<std::string, const dtse::ir::Application*>> apps;
    for (const auto& [label, app] : tuned) apps.emplace_back(label, &app);

    std::vector<dc::Evaluation> shared_evals;
    if (tracer_ == nullptr) {
      shared_evals =
          evals_of(explorer.explore_shared_allocation_counts(apps, shared_counts, options));
    } else {
      std::optional<dtse::ir::Application> merged;
      {
        Span span(tracer_, "core", "core.merge/shared");
        merged = dc::merge_applications(apps, "shared");
      }
      shared_evals = traced_sweep("shared", *merged, count_points(shared_counts));
    }
    for (std::size_t i = 0; i < shared_counts.size(); ++i) {
      add_point("shared", count_label(shared_counts[i]), shared_evals[i]);
    }

    Span span(tracer_, "core", "core.attribution/shared");
    const auto final_eval = explorer.evaluate_shared_per_workload(apps, options);
    add_point("shared", "final", final_eval.merged);
  }

  out_.fingerprint = fingerprint_points(out_.report.points);
  return std::move(out_);
}

}  // namespace

void fill_profile_cache(const dw::WorkloadOptions& options,
                        dtse::persist::ProfileCache& cache) {
  for (const auto name : dw::workload_names()) {
    (void)dw::profile_cached(*dw::find_workload(name), options, &cache);
  }
  for (const auto& entry : roster()) {
    for (const auto backend : entry.backends) {
      auto variant_options = options;
      variant_options.entropy_backend = backend;
      (void)dw::profile_cached(*dw::find_workload(entry.workload), variant_options, &cache);
    }
  }
}

ExploreRun run_explore(const ExploreContext& context, dtse::persist::ProfileCache& cache,
                       Tracer* tracer) {
  auto run = Pipeline(context, cache, tracer).run();
  if (tracer == nullptr) {
    // Per-point latencies from the program's own sweep-point spans.
    for (const auto& event : dtse::obs::TelemetryRegistry::global().trace_events()) {
      if (event.name.starts_with("explore.alloc/") ||
          event.name.starts_with("explore.cycle_budget/")) {
        run.eval_latency_ms.push_back(static_cast<double>(event.duration_us) / 1e3);
      }
    }
  }
  return run;
}

}  // namespace perfbench
