// Tests for the telemetry subsystem: JSON writer, metrics, spans, exporters,
// and the determinism contract — counters are pure functions of the run
// configuration, identical across reruns and parallelism settings.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/solvers.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "support/cancellation.hpp"

namespace dtse::obs {
namespace {

TEST(JsonWriter, CommasAndNesting) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.key("a");
  json.value(std::uint64_t{1});
  json.key("b");
  json.begin_array();
  json.value("x");
  json.value(true);
  json.value(-2);
  json.end_array();
  json.end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":["x",true,-2]})");
}

TEST(JsonWriter, EscapesStrings) {
  std::ostringstream os;
  JsonWriter json(os);
  json.value(std::string_view("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriter, DoublesRoundTripAndNonFiniteDegradesToNull) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_array();
  json.value(0.1);
  json.value(std::numeric_limits<double>::infinity());
  json.end_array();
  const auto text = os.str();
  EXPECT_NE(text.find("0.1"), std::string::npos);
  EXPECT_NE(text.find("null"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(Metrics, CounterAccumulatesAndHistogramTracksMinMax) {
  TelemetryRegistry registry;
  registry.counter("c").add(2);
  registry.counter("c").add(3);
  EXPECT_EQ(registry.counter("c").value(), 5u);

  auto& h = registry.histogram("h");
  h.observe(7);
  h.observe(100);
  h.observe(0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 107u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(0), 1u);  // the zero sample
  EXPECT_EQ(h.bucket(3), 1u);  // 7 in [4, 8)
  EXPECT_EQ(h.bucket(7), 1u);  // 100 in [64, 128)
}

TEST(Metrics, EmptyHistogramMinIsZero) {
  TelemetryRegistry registry;
  EXPECT_EQ(registry.histogram("h").min(), 0u);
}

TEST(Metrics, SnapshotIsSortedByName) {
  TelemetryRegistry registry;
  registry.counter("zebra").add(1);
  registry.counter("apple").add(2);
  registry.gauge("mid").set(-3);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "apple");
  EXPECT_EQ(snapshot.counters[1].first, "zebra");
  EXPECT_EQ(snapshot.counter_or("apple"), 2u);
  EXPECT_EQ(snapshot.counter_or("absent", 42), 42u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, -3);
}

TEST(Span, RecordsOneCompleteEventWithArgs) {
  TelemetryRegistry registry;
  {
    Span span(&registry, "work", "test");
    span.arg("items", 3.0);
  }
  const auto events = registry.trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_GE(events[0].duration_us, 0);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "items");
}

TEST(Span, BalancedUnderException) {
  // 'X' events are taken in one shot at scope exit, so an exception cannot
  // leave a dangling begin — the invariant behind "spans balanced under
  // solver cancellation/timeout".
  TelemetryRegistry registry;
  try {
    Span span(&registry, "throwing", "test");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  ASSERT_EQ(registry.event_count(), 1u);
  EXPECT_EQ(registry.trace_events()[0].phase, 'X');
}

TEST(Span, NullRegistryDisablesAndFinishIsIdempotent) {
  Span null_span(nullptr, "ignored", "test");
  null_span.arg("x", 1.0);
  null_span.finish();  // no crash

  TelemetryRegistry registry;
  Span span(&registry, "once", "test");
  span.finish();
  span.finish();
  EXPECT_EQ(registry.event_count(), 1u);
}

TEST(Span, AggregateFoldsIntoTimingsAndWorkerSpansDoNot) {
  TelemetryRegistry registry;
  { Span span(&registry, "agg", "test", /*aggregate=*/true); }
  { Span span(&registry, "agg", "test", /*aggregate=*/true); }
  { Span span(&registry, "raw", "test", /*aggregate=*/false); }
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.timings.size(), 1u);
  EXPECT_EQ(snapshot.timings[0].name, "agg");
  EXPECT_EQ(snapshot.timings[0].count, 2u);
  EXPECT_EQ(registry.event_count(), 3u);
}

TEST(Registry, ResetDropsEverything) {
  TelemetryRegistry registry;
  registry.counter("c").add(1);
  { Span span(&registry, "s", "test"); }
  registry.reset();
  const auto snapshot = registry.snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.timings.empty());
  EXPECT_EQ(registry.event_count(), 0u);
}

TEST(Exporters, ChromeTraceIsWellFormed) {
  TelemetryRegistry registry;
  {
    Span span(&registry, "outer \"quoted\"", "test");
    span.arg("n", 1.0);
  }
  std::ostringstream os;
  registry.write_chrome_trace(os);
  const auto text = os.str();
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Exporters, SnapshotJsonHasAllSections) {
  TelemetryRegistry registry;
  registry.counter("c").add(1);
  std::ostringstream os;
  registry.snapshot().write_json(os);
  const auto text = os.str();
  for (const char* section : {"counters", "gauges", "histograms", "timings"}) {
    EXPECT_NE(text.find("\"" + std::string(section) + "\""), std::string::npos)
        << section;
  }
}

/// A small annealing problem exercising the instrumented solver path.
alloc::AssignmentSolution solve_sample(unsigned parallelism) {
  ir::Application app("obs-sample");
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 100'000;
  std::vector<ir::BasicGroupId> groups;
  for (int i = 0; i < 8; ++i) {
    const auto id =
        app.add_group({"g" + std::to_string(i), 256u << (i % 3), 4 + 4 * (i % 4)});
    groups.push_back(id);
    body.accesses.push_back({id, ir::AccessKind::kRead, 1.0});
  }
  app.add_body(body);
  const graph::ConflictGraph conflicts;
  const memlib::MemoryLibrary library;
  const alloc::AssignmentProblem problem(app, groups, conflicts, library, 20'000'000);

  alloc::SolverOptions options;
  options.solver = alloc::Solver::kSimulatedAnnealing;
  options.seed = 7;
  options.sa_iterations = 4000;
  options.sa_chains = 4;
  options.sa_parallelism = parallelism;
  return alloc::solve_assignment(problem, 3, options);
}

TEST(Determinism, CountersIdenticalAcrossRerunsAndParallelism) {
  auto& global = TelemetryRegistry::global();

  global.reset();
  (void)solve_sample(1);
  const auto serial = global.snapshot();

  global.reset();
  (void)solve_sample(4);
  const auto parallel = global.snapshot();

  // Counters, gauges and histograms must match bit for bit; only `timings`
  // (wall-clock) may differ.
  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_EQ(serial.gauges, parallel.gauges);
  ASSERT_EQ(serial.histograms.size(), parallel.histograms.size());
  for (std::size_t i = 0; i < serial.histograms.size(); ++i) {
    EXPECT_EQ(serial.histograms[i].name, parallel.histograms[i].name);
    EXPECT_EQ(serial.histograms[i].count, parallel.histograms[i].count);
    EXPECT_EQ(serial.histograms[i].sum, parallel.histograms[i].sum);
    EXPECT_EQ(serial.histograms[i].min, parallel.histograms[i].min);
    EXPECT_EQ(serial.histograms[i].max, parallel.histograms[i].max);
  }
  EXPECT_GT(serial.counter_or("solver.sa.moves"), 0u);
  global.reset();
}

TEST(Determinism, ConvergenceSeriesIdenticalAcrossParallelism) {
  const auto serial = solve_sample(1);
  const auto parallel = solve_sample(4);
  ASSERT_EQ(serial.chains.size(), 4u);
  ASSERT_EQ(serial.chains.size(), parallel.chains.size());
  for (std::size_t c = 0; c < serial.chains.size(); ++c) {
    const auto& a = serial.chains[c];
    const auto& b = parallel.chains[c];
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.start_cost, b.start_cost);
    EXPECT_EQ(a.best_cost, b.best_cost);
    ASSERT_EQ(a.convergence.size(), b.convergence.size());
    ASSERT_FALSE(a.convergence.empty());
    for (std::size_t i = 0; i < a.convergence.size(); ++i) {
      EXPECT_EQ(a.convergence[i].iteration, b.convergence[i].iteration);
      EXPECT_EQ(a.convergence[i].current_cost, b.convergence[i].current_cost);
      EXPECT_EQ(a.convergence[i].best_cost, b.convergence[i].best_cost);
      EXPECT_EQ(a.convergence[i].accepted, b.convergence[i].accepted);
    }
  }
  TelemetryRegistry::global().reset();
}

TEST(Determinism, ReportJsonIdenticalAcrossParallelismModuloTimings) {
  const auto render = [](unsigned parallelism) {
    auto& global = TelemetryRegistry::global();
    global.reset();
    const auto solution = solve_sample(parallelism);
    RunReport report;
    core::Evaluation eval;
    eval.allocation.sa_chains = solution.chains;
    eval.feasible = solution.feasible;
    report.add_point("test", "sample", eval);
    report.add_convergence("test/sample", eval);
    report.metrics = global.snapshot();
    report.metrics.timings.clear();  // the one allowlisted-nondeterministic section
    global.reset();
    std::ostringstream os;
    report.write_json(os);
    return os.str();
  };
  EXPECT_EQ(render(1), render(4));
}

TEST(Spans, BalancedUnderSolverCancellation) {
  auto& global = TelemetryRegistry::global();
  global.reset();
  support::CancellationToken cancel;
  cancel.cancel();

  ir::Application app("cancelled");
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 1000;
  std::vector<ir::BasicGroupId> groups;
  for (int i = 0; i < 6; ++i) {
    const auto id = app.add_group({"g" + std::to_string(i), 256, 8});
    groups.push_back(id);
    body.accesses.push_back({id, ir::AccessKind::kRead, 1.0});
  }
  app.add_body(body);
  const graph::ConflictGraph conflicts;
  const memlib::MemoryLibrary library;
  const alloc::AssignmentProblem problem(app, groups, conflicts, library, 20'000'000);
  alloc::SolverOptions options;
  options.solver = alloc::Solver::kSimulatedAnnealing;
  options.sa_iterations = 1000;
  options.cancel = &cancel;
  (void)alloc::solve_assignment(problem, 2, options);

  // Every buffered event must be a complete ('X') or metadata event — a
  // cancelled run can never leave an unbalanced begin in the trace.
  for (const auto& event : global.trace_events()) {
    EXPECT_TRUE(event.phase == 'X' || event.phase == 'M') << event.phase;
  }
  global.reset();
}

TEST(RunReport, CacheStatsRebuildFromRegistryCounters) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"profile_cache.evicted", 1},
                       {"profile_cache.hits", 5},
                       {"profile_cache.misses", 2},
                       {"profile_cache.quarantined", 3},
                       {"profile_cache.store_failures", 4},
                       {"profile_cache.stores", 2}};
  const auto stats = cache_stats_from(snapshot);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.stores, 2u);
  EXPECT_EQ(stats.quarantined, 3u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.store_failures, 4u);
  EXPECT_EQ(stats.to_string(), "5 hits, 2 misses, 2 stores, 3 quarantined, 1 evicted");
}

TEST(RunReport, VersionedAndContainsAllTopLevelKeys) {
  RunReport report;
  report.workloads.push_back({"w", true, "ok"});
  std::ostringstream os;
  report.write_json(os);
  const auto text = os.str();
  EXPECT_NE(text.find("\"dtse_report_version\":1"), std::string::npos);
  for (const char* key :
       {"workloads", "points", "pareto_front", "solver", "cache", "metrics"}) {
    EXPECT_NE(text.find("\"" + std::string(key) + "\""), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace dtse::obs
