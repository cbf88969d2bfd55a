// End-to-end exploration benchmark: the perfbench binary.
//
//   perfbench --workload cold_explore|warm_explore|feedback_queries|all
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//             [--points-out FILE]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1)
// it alternates untraced and traced repetitions and prints the per-layer
// metrics, the span coverage and the tracing overhead, and writes the
// benchmark-side spans as Chrome-trace JSON into the work directory.  Every
// run checks its outputs (golden verifies, failure counts, fingerprints that
// must repeat across repetitions, cold vs warm and traced vs untraced); the
// last stdout line is one JSON object, and the exit code is 1 when a check
// failed.  See README.md for the workloads and metrics.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "explore_pipeline.hpp"
#include "feedback_queries.hpp"
#include "obs/telemetry.hpp"
#include "tracer.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string points_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t fingerprint = 0;  ///< explore workloads: the pipeline's

  void fail(const std::string& why) {
    correct = false;
    std::cerr << "perfbench: CHECK FAILED: " << why << '\n';
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Percentile with linear interpolation between closest ranks (p in [0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The explorer configuration every workload shares: serial sweeps and
/// serial annealing chains.  Results do not depend on either setting (the
/// determinism contract); serial timing depends on one free core instead of
/// four, which on a host whose cores are shared with other tenants is what
/// keeps run-to-run spread inside the bounds.
dtse::core::ExplorerOptions explorer_options() {
  dtse::core::ExplorerOptions options;
  options.parallelism = 1;
  options.allocation.solver.sa_parallelism = 1;
  return options;
}

/// Fresh, empty per-run directories under the work directory; everything is
/// removed when the owner goes away.
class CacheDirs {
 public:
  explicit CacheDirs(const std::string& work_dir)
      : root_(fs::path(work_dir) / ("run-" + std::to_string(::getpid()))) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  CacheDirs(const CacheDirs&) = delete;
  CacheDirs& operator=(const CacheDirs&) = delete;
  ~CacheDirs() {
    std::error_code ignored;
    fs::remove_all(root_, ignored);
  }

  std::string fresh() {
    const auto dir = root_ / ("cache-" + std::to_string(next_++));
    fs::create_directories(dir);
    return dir.string();
  }
  static void remove(const std::string& dir) { fs::remove_all(dir); }

 private:
  fs::path root_;
  int next_ = 0;
};

/// Per-layer metrics of one traced repetition.
std::vector<Metric> layer_metrics(const LayerBreakdown& b, const LayerCounters& profile,
                                  const LayerCounters& load, const LayerCounters& alloc) {
  const auto busy = [&b](const char* key) {
    const auto it = b.busy_ms.find(key);
    return it == b.busy_ms.end() ? 0.0 : it->second;
  };
  const auto calls = [&b](const char* key) {
    const auto it = b.calls.find(key);
    return it == b.calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto self = [&b](const char* layer) {
    const auto it = b.self_ms.find(layer);
    return it == b.self_ms.end() ? 0.0 : it->second;
  };
  const double profile_ms = busy("trace.profile");
  const double allocate_ms = busy("alloc.allocate");
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"trace.profile_ms", profile_ms, "ms"},
      {"trace.events", d(profile.trace_events), "count"},
      {"trace.events_per_s", ratio(d(profile.trace_events), profile_ms / 1e3), "1/s"},
      {"trace.reuse_misses", d(profile.reuse_misses), "count"},
      {"persist.store_ms", busy("persist.store"), "ms"},
      {"persist.load_ms", busy("persist.load"), "ms"},
      {"persist.hit_ratio", ratio(d(load.cache_hits), d(load.cache_lookups)), "ratio"},
      {"workloads.verify_ms", busy("workloads.verify"), "ms"},
      {"workloads.tune_ms", busy("workloads.tune"), "ms"},
      {"graph.macp_ms", busy("graph.macp"), "ms"},
      {"scbd.distribute_ms", busy("scbd.distribute_budget"), "ms"},
      {"scbd.calls", calls("scbd.distribute_budget"), "count"},
      {"alloc.allocate_ms", allocate_ms, "ms"},
      {"alloc.calls", calls("alloc.allocate"), "count"},
      {"alloc.sa_moves_per_s", ratio(d(alloc.sa_moves), allocate_ms / 1e3), "1/s"},
      {"alloc.sa_accept_ratio", ratio(d(alloc.sa_accepted), d(alloc.sa_moves)), "ratio"},
      {"alloc.bb_nodes", d(alloc.bb_nodes), "count"},
      {"alloc.bb_prune_ratio", ratio(d(alloc.bb_pruned), d(alloc.bb_nodes)), "ratio"},
      {"core.merge_ms", busy("core.merge"), "ms"},
      {"core.attribution_ms", busy("core.attribution"), "ms"},
      {"core.sweep_speedup", b.sweep_speedup, "ratio"},
      {"core.sweep_wait_ms", b.sweep_wait_ms, "ms"},
      {"bench.span_coverage", b.coverage, "ratio"},
  };
  for (const char* layer : {"trace", "persist", "workloads", "graph", "scbd", "alloc", "core"}) {
    m.push_back({std::string(layer) + ".self_ms", self(layer), "ms"});
  }
  return m;
}

/// Element-wise median over the traced repetitions' per-layer metrics.
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out;
  if (reps.empty()) return out;
  for (std::size_t i = 0; i < reps.front().size(); ++i) {
    std::vector<double> values;
    for (const auto& rep : reps) values.push_back(rep[i].value);
    out.push_back({reps.front()[i].name, median(values), reps.front()[i].unit});
  }
  return out;
}

/// What a workload run measured, turned into metrics by `finish`.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> untraced_wall;  ///< per repetition / round
  std::vector<double> traced_wall;
  std::vector<double> latency_ms;     ///< untraced evaluations
  std::vector<std::vector<Metric>> layer_reps;
  std::uint64_t evaluated = 0;        ///< points / queries of one repetition
  std::uint64_t infeasible = 0;
  std::vector<double> costs;  ///< averaged by cost_geomean
};

/// Repetition wall times are averaged, not medianed: the host's speed drifts
/// between a fast and a slow state over seconds to minutes, and the mean
/// moves in proportion to the share of the run spent slow where the median
/// jumps from one state to the other.
void finish(Outcome& out, const Samples& s, bool trace) {
  double untraced_total = 0.0;
  for (const double w : s.untraced_wall) untraced_total += w;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.end_to_end = {
      {"setup_s", median(s.setup_s), "s"},
      {"wall_s", mean(s.untraced_wall), "s"},
      {"query_p50_ms", percentile(s.latency_ms, 0.50), "ms"},
      {"query_p95_ms", percentile(s.latency_ms, 0.95), "ms"},
      {"queries_per_s", ratio(d(s.latency_ms.size()), untraced_total), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"infeasible_ratio", ratio(d(s.infeasible), d(s.evaluated)), "ratio"},
      {"cost_geomean", geomean(s.costs), "cost"},
  };
  out.per_layer = median_metrics(s.layer_reps);
  if (trace) {
    out.per_layer.push_back({"bench.trace_overhead_ms",
                             (mean(s.traced_wall) - mean(s.untraced_wall)) * 1e3, "ms"});
  }
}

struct Env {
  Args args;
  dtse::core::Explorer explorer{dtse::memlib::MemoryLibrary{}};
  dtse::alloc::MemoryAllocator allocator{dtse::memlib::MemoryLibrary{}};
  Tracer tracer;
  ExploreContext context() const {
    ExploreContext ctx;
    ctx.explorer = &explorer;
    ctx.allocator = &allocator;
    ctx.workload_options.seed = args.seed;
    ctx.options = explorer_options();
    return ctx;
  }
};

Outcome explore_workload(Env& env, bool warm) {
  const auto& args = env.args;
  const auto ctx = env.context();
  auto& registry = dtse::obs::TelemetryRegistry::global();
  CacheDirs dirs(args.work_dir);
  Outcome out;
  Samples samples;

  // Warm: set up several filled caches (each timed), measure over the last.
  std::string warm_dir;
  if (warm) {
    for (int i = 0; i < 3; ++i) {
      registry.reset();
      if (!warm_dir.empty()) CacheDirs::remove(warm_dir);
      const auto start = Clock::now();
      warm_dir = dirs.fresh();
      dtse::persist::ProfileCache cache(warm_dir);
      fill_profile_cache(ctx.workload_options, cache);
      samples.setup_s.push_back(seconds_since(start));
    }
  }

  std::optional<ExploreRun> first;
  std::string cold_dir;
  // Untraced: enough repetitions for >= 200 point latencies, so p95 has at
  // least 10 samples beyond it.  Traced: two of each kind.
  const std::size_t min_reps = args.trace ? 4 : 5;
  const auto measure_start = Clock::now();
  for (std::size_t rep = 0;
       rep < min_reps || seconds_since(measure_start) < args.seconds; ++rep) {
    registry.reset();
    const bool traced = args.trace && rep % 2 == 1;
    std::optional<dtse::persist::ProfileCache> cache;
    if (warm) {
      cache.emplace(warm_dir);
    } else {
      if (!cold_dir.empty()) CacheDirs::remove(cold_dir);
      const auto start = Clock::now();
      cold_dir = dirs.fresh();
      cache.emplace(cold_dir);
      samples.setup_s.push_back(seconds_since(start));
    }

    if (traced) env.tracer.clear();
    const auto start = Clock::now();
    const double cpu_start = process_cpu_s();
    ExploreRun run;
    int root = -1;
    {
      Span rep_span(traced ? &env.tracer : nullptr, "bench",
                    std::string(warm ? "bench.warm_explore" : "bench.cold_explore"));
      root = rep_span.id();
      run = run_explore(ctx, *cache, traced ? &env.tracer : nullptr);
    }
    const double wall = seconds_since(start);
    std::cerr << "perfbench: rep " << rep << (traced ? " traced" : "") << ": wall " << wall
              << " s, cpu " << process_cpu_s() - cpu_start << " s\n";
    if (traced) {
      samples.traced_wall.push_back(wall);
      samples.layer_reps.push_back(layer_metrics(analyze(env.tracer.spans(), root),
                                                 run.profile_counters, run.load_counters,
                                                 run.alloc_counters));
    } else {
      samples.untraced_wall.push_back(wall);
      samples.latency_ms.insert(samples.latency_ms.end(), run.eval_latency_ms.begin(),
                                run.eval_latency_ms.end());
    }
    out.attempted += run.attempted;
    out.failed += run.failed;
    for (const auto& golden : run.report.workloads) {
      if (!golden.golden_passed) out.fail("golden verify " + golden.name + ": " + golden.detail);
    }
    if (!first) {
      if (!args.points_out.empty()) {
        std::ofstream file(args.points_out);
        run.report.write_json(file);
      }
      first = std::move(run);
    } else if (run.fingerprint != first->fingerprint) {
      out.fail(std::string("fingerprint differs between repetitions") +
               (traced ? " (traced vs untraced)" : ""));
    }
  }
  if (!warm) {
    // Cold vs warm: the last cold run's cache, read back, must reproduce it.
    registry.reset();
    dtse::persist::ProfileCache cache(cold_dir);
    const auto check = run_explore(ctx, cache, nullptr);
    if (check.fingerprint != first->fingerprint) {
      out.fail("warm run over the cold cache changed the points");
    }
  }
  if (out.failed > 0) out.fail(std::to_string(out.failed) + " failed operations");

  out.fingerprint = first->fingerprint;
  samples.evaluated = first->report.points.size();
  samples.infeasible = first->infeasible;
  samples.costs = first->costs;
  finish(out, samples, args.trace);
  std::cerr << "perfbench: " << (warm ? "warm" : "cold") << "_explore: "
            << samples.untraced_wall.size() << " untraced + " << samples.traced_wall.size()
            << " traced repetitions, " << samples.latency_ms.size() << " point latencies\n";
  return out;
}

Outcome query_workload(Env& env) {
  const auto& args = env.args;
  const auto ctx = env.context();
  auto& registry = dtse::obs::TelemetryRegistry::global();
  Outcome out;
  Samples samples;

  std::vector<QueryModel> models;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    models = prepare_query_models(ctx.workload_options);
    samples.setup_s.push_back(seconds_since(start));
  }
  const auto queries = draw_queries(models.size(), args.seed, ctx.options);

  std::optional<RoundResult> first;
  constexpr std::size_t kMinQueries = 200;  // p95 with >= 10 samples beyond it
  const auto measure_start = Clock::now();
  for (std::uint64_t round = 0;
       samples.latency_ms.size() < kMinQueries ||
       seconds_since(measure_start) < args.seconds ||
       (args.trace && samples.traced_wall.size() < 2);
       ++round) {
    registry.reset();
    const bool traced = args.trace && round % 2 == 1;
    if (traced) env.tracer.clear();
    RoundResult result;
    int root = -1;
    const auto before = LayerCounters::read();
    {
      Span round_span(traced ? &env.tracer : nullptr, "bench", "bench.query_round");
      root = round_span.id();
      result = run_round(models, queries, args.seed, round, env.explorer, env.allocator,
                         traced ? &env.tracer : nullptr);
    }
    if (traced) {
      samples.traced_wall.push_back(result.wall_s);
      samples.layer_reps.push_back(layer_metrics(analyze(env.tracer.spans(), root), {}, {},
                                                 LayerCounters::read() - before));
    } else {
      samples.untraced_wall.push_back(result.wall_s);
      samples.latency_ms.insert(samples.latency_ms.end(), result.latency_ms.begin(),
                                result.latency_ms.end());
    }
    out.attempted += queries.size();
    out.failed += result.failed;
    if (!first) {
      first = std::move(result);
    } else if (result.fingerprint != first->fingerprint) {
      out.fail(std::string("query results differ between rounds") +
               (traced ? " (traced vs untraced)" : ""));
    }
  }
  if (out.failed > 0) out.fail(std::to_string(out.failed) + " failed queries");

  out.fingerprint = first->fingerprint;
  samples.evaluated = queries.size();
  samples.infeasible = first->infeasible;
  samples.costs = first->feasible_costs;
  finish(out, samples, args.trace);
  std::cerr << "perfbench: feedback_queries: " << samples.untraced_wall.size()
            << " untraced + " << samples.traced_wall.size() << " traced rounds of "
            << queries.size() << " queries, " << samples.latency_ms.size()
            << " latency samples\n";
  return out;
}

void print_result(const Outcome& out, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::cerr << "usage: perfbench --workload cold_explore|warm_explore|feedback_queries|all\n"
               "                 --seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
               "                 [--points-out FILE]\n";
  return 2;
}

Outcome run_workload(Env& env, const std::string& name) {
  Outcome out = name == "feedback_queries" ? query_workload(env)
                                           : explore_workload(env, name == "warm_explore");
  if (env.args.trace) {
    const auto path = fs::path(env.args.work_dir) /
                      ("trace-" + name + "-seed" + std::to_string(env.args.seed) + ".json");
    std::ofstream file(path);
    env.tracer.write_chrome_trace(file);
    std::cerr << "perfbench: last traced repetition's spans -> " << path.string() << '\n';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Env env;
  auto& args = env.args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--points-out") {
      args.points_out = value;
    } else {
      return usage();
    }
  }
  const std::vector<std::string> names = {"cold_explore", "warm_explore", "feedback_queries"};
  if (args.workload != "all" &&
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return usage();
  }
  fs::create_directories(args.work_dir);

  try {
    if (args.workload != "all") {
      const auto out = run_workload(env, args.workload);
      std::printf("%s (seed %llu)\n", args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed));
      print_result(out, args.trace ? out.per_layer : out.end_to_end);
      return out.correct ? 0 : 1;
    }
    // Every workload in this one process, metrics prefixed by workload.
    Outcome all;
    std::vector<Metric> metrics;
    std::vector<std::uint64_t> explore_fingerprints;
    for (const auto& name : names) {
      const auto out = run_workload(env, name);
      all.correct = all.correct && out.correct;
      all.attempted += out.attempted;
      all.failed += out.failed;
      if (name != "feedback_queries") explore_fingerprints.push_back(out.fingerprint);
      for (const auto& m : args.trace ? out.per_layer : out.end_to_end) {
        metrics.push_back({name + "/" + m.name, m.value, m.unit});
      }
    }
    if (explore_fingerprints[0] != explore_fingerprints[1]) {
      all.fail("cold_explore and warm_explore points differ");
    }
    std::printf("all workloads (seed %llu)\n", static_cast<unsigned long long>(args.seed));
    print_result(all, metrics);
    return all.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: fatal: " << e.what() << '\n';
    return 3;
  }
}
