// google-benchmark microbenchmarks: run-time of the tools themselves.
//
// The paper's pitch is that feedback is *fast* ("explored in a short
// time"); these benchmarks quantify the cost of one feedback evaluation and
// of its pieces on this implementation.
#include <benchmark/benchmark.h>

#include "alloc/assignment_problem.hpp"
#include "alloc/solvers.hpp"
#include "btpc/bitstream.hpp"
#include "btpc/codec.hpp"
#include "core/btpc_case_study.hpp"
#include "entropy/adaptive_huffman.hpp"
#include "entropy/entropy_coder.hpp"
#include "core/explorer.hpp"
#include "graph/conflict_graph.hpp"
#include "hyperspec/codec.hpp"
#include "motion/estimator.hpp"
#include "obs/telemetry.hpp"
#include "oracles/full_recost.hpp"
#include "persist/app_container.hpp"
#include "persist/profile_cache.hpp"
#include "scbd/budget_distribution.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
#include "trace/instrumented_array.hpp"
#include "trace/recorder.hpp"
#include "workloads/hyperspec_workload.hpp"
#include "workloads/motion_workload.hpp"
#include "workloads/profile_store.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace dtse;

const ir::Application& demo_app() {
  static const ir::Application app = [] {
    core::BtpcCaseOptions options;
    options.profile_width = 128;
    options.profile_height = 128;
    return core::profile_btpc_demonstrator(options);
  }();
  return app;
}

void BM_EncodeLossless(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const auto image =
      support::make_synthetic_image(size, size, support::SyntheticKind::kCompound, 7);
  btpc::Encoder encoder(size, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(image, {}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(size) * size);
}
BENCHMARK(BM_EncodeLossless)->Arg(64)->Arg(128)->Arg(256);

void BM_DecodeLossless(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const auto image =
      support::make_synthetic_image(size, size, support::SyntheticKind::kCompound, 7);
  btpc::Encoder encoder(size, size);
  const auto encoded = encoder.encode(image, {});
  btpc::Decoder decoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(encoded));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(size) * size);
}
BENCHMARK(BM_DecodeLossless)->Arg(64)->Arg(128);

void BM_ProfiledEncode(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const auto image =
      support::make_synthetic_image(size, size, support::SyntheticKind::kCompound, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(btpc::profile_btpc(image, 1024, 1024));
  }
}
BENCHMARK(BM_ProfiledEncode)->Arg(64)->Arg(128);

void BM_ScbdDistribution(benchmark::State& state) {
  const auto& app = demo_app();
  scbd::ScbdOptions options;
  options.global_budget_cycles =
      static_cast<std::uint64_t>(state.range(0)) * 1'000'000u;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scbd::distribute_budget(app, options));
  }
}
BENCHMARK(BM_ScbdDistribution)->Arg(20)->Arg(14)->Arg(11);

void BM_AssignmentBranchAndBound(benchmark::State& state) {
  const auto& app = demo_app();
  const auto scbd_result = scbd::distribute_budget(app, {});
  memlib::MemoryLibrary library;
  alloc::MemoryAllocator allocator{library};
  const auto [onchip, offchip] = allocator.partition_groups(app, {});
  const alloc::AssignmentProblem problem(app, onchip, scbd_result.conflicts, library,
                                         20'000'000);
  alloc::SolverOptions options;
  options.solver = alloc::Solver::kBranchAndBound;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc::solve_assignment(problem, static_cast<int>(state.range(0)), options));
  }
}
BENCHMARK(BM_AssignmentBranchAndBound)->Arg(5)->Arg(8)->Arg(12);

// One single-chain annealing run: the solver itself (incremental cost
// engine) or the test-side replay of its chain on the full-recost oracle.
// Both are bit-identical in results (same seed => same trajectory => same
// final cost, reported as the final_cost counter); only the per-move cost
// differs.
struct AnnealRun {
  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
  double final_cost = 0.0;
};

AnnealRun anneal_once(const alloc::AssignmentProblem& problem, int memories,
                      const alloc::SolverOptions& options, bool incremental) {
  if (!incremental) {
    const auto run = alloc::oracle::anneal_greedy_chain<alloc::oracle::FullRecostState>(
        problem, memories, options);
    return {run.moves, run.accepted, run.best_cost};
  }
  const auto solution = alloc::solve_assignment(problem, memories, options);
  return {solution.nodes_explored, solution.accepted_moves, solution.scalar_cost};
}

// The annealing hot loop: moves evaluated (and accepted) per second, with
// the incremental cost engine against the full-recost baseline.  The
// acceptance bar for the incremental engine is >=5x the baseline's accepted
// moves/sec at equal solution quality.
void annealing_moves(benchmark::State& state, bool incremental) {
  const auto& app = demo_app();
  const auto scbd_result = scbd::distribute_budget(app, {});
  memlib::MemoryLibrary library;
  alloc::MemoryAllocator allocator{library};
  const auto [onchip, offchip] = allocator.partition_groups(app, {});
  const alloc::AssignmentProblem problem(app, onchip, scbd_result.conflicts, library,
                                         20'000'000);
  alloc::SolverOptions options;
  options.solver = alloc::Solver::kSimulatedAnnealing;
  options.sa_chains = 1;
  options.sa_iterations = 20'000;
  std::uint64_t moves = 0;
  std::uint64_t accepted = 0;
  double final_cost = 0.0;
  for (auto _ : state) {
    const auto run =
        anneal_once(problem, static_cast<int>(state.range(0)), options, incremental);
    moves += run.moves;
    accepted += run.accepted;
    final_cost = run.final_cost;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moves));
  state.counters["accepted/s"] = benchmark::Counter(static_cast<double>(accepted),
                                                    benchmark::Counter::kIsRate);
  state.counters["final_cost"] = final_cost;
}

void BM_AnnealingFullRecost(benchmark::State& state) { annealing_moves(state, false); }
BENCHMARK(BM_AnnealingFullRecost)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_AnnealingIncremental(benchmark::State& state) { annealing_moves(state, true); }
BENCHMARK(BM_AnnealingIncremental)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

// Move rate as a function of the member-set size: a synthetic application
// with Arg groups annealed into 4 memories (Arg/4 members each on average).
// The incremental engine maintains per-memory conflict counts and re-costs a
// move in O(members); the full-recost baseline pays the per-move clique scan
// over every memory, so the items/s gap must WIDEN superlinearly with Arg at
// bit-identical final_cost.
struct LargeMemberFixture {
  ir::Application app{"large"};
  std::vector<ir::BasicGroupId> groups;
  graph::ConflictGraph conflicts;
  memlib::MemoryLibrary library;

  explicit LargeMemberFixture(int n_groups) {
    ir::LoopBody body;
    body.name = "loop";
    body.iterations = 100'000;
    for (int i = 0; i < n_groups; ++i) {
      const auto id = app.add_group(
          {"g" + std::to_string(i), 256u << (i % 3), 4 + 4 * (i % 4), {}, 2});
      groups.push_back(id);
      body.accesses.push_back({id, ir::AccessKind::kRead, 2.0});
      if (i % 2 == 0) body.accesses.push_back({id, ir::AccessKind::kWrite, 1.0});
    }
    app.add_body(body);
    for (int i = 0; i < n_groups; ++i) {
      for (int j = i + 1; j < n_groups; ++j) {
        if ((i * 7 + j * 3) % 31 == 0) {
          conflicts.add_conflict(groups[static_cast<std::size_t>(i)],
                                 groups[static_cast<std::size_t>(j)], 1.0 + j);
        }
      }
    }
  }
};

void annealing_large_members(benchmark::State& state, bool incremental) {
  const int n_groups = static_cast<int>(state.range(0));
  LargeMemberFixture fix(n_groups);
  const alloc::AssignmentProblem problem(fix.app, fix.groups, fix.conflicts, fix.library,
                                         20'000'000);
  alloc::SolverOptions options;
  options.solver = alloc::Solver::kSimulatedAnnealing;
  options.sa_chains = 1;
  options.sa_iterations = 20'000;
  std::uint64_t moves = 0;
  double final_cost = 0.0;
  for (auto _ : state) {
    const auto run = anneal_once(problem, 4, options, incremental);
    moves += run.moves;
    final_cost = run.final_cost;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moves));
  state.counters["final_cost"] = final_cost;
}

void BM_AnnealingLargeMembers(benchmark::State& state) {
  annealing_large_members(state, true);
}
BENCHMARK(BM_AnnealingLargeMembers)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_AnnealingLargeMembersFullRecost(benchmark::State& state) {
  annealing_large_members(state, false);
}
BENCHMARK(BM_AnnealingLargeMembersFullRecost)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_FullFeedbackEvaluation(benchmark::State& state) {
  const auto& app = demo_app();
  core::Explorer explorer{memlib::MemoryLibrary{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.evaluate(app));
  }
}
BENCHMARK(BM_FullFeedbackEvaluation);

// --- trace layer -------------------------------------------------------------

// The recorder fast path: instrumented reads/writes inside Iteration scopes,
// including the per-iteration flat aggregation at scope exit.
// Telemetry overhead guard: one instrumented scope — a trace-only span, a
// 64-add counter burst and a histogram sample — through the real registry
// (Arg 1) versus the obs::noop stubs (Arg 0).  The noop lane compiles to the
// exact codegen a -DDTSE_OBS_OFF build gets, so the pair quantifies what the
// instrumentation costs inside one binary; record_bench.sh asserts the
// benchmark stays in every trajectory point.
template <typename Registry, typename SpanType>
void telemetry_overhead_loop(benchmark::State& state, Registry& registry) {
  for (auto _ : state) {
    SpanType span(&registry, "bench.span", "bench", /*aggregate=*/false);
    auto& counter = registry.counter("bench.counter");
    for (int i = 0; i < 64; ++i) counter.add(1);
    registry.histogram("bench.hist").observe(64);
    benchmark::DoNotOptimize(&counter);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

void BM_TelemetryOverhead(benchmark::State& state) {
  if (state.range(0) == 1) {
    obs::TelemetryRegistry registry;  // fresh instance: bounded event buffer
    telemetry_overhead_loop<obs::TelemetryRegistry, obs::Span>(state, registry);
  } else {
    auto& registry = obs::noop::TelemetryRegistry::global();
    telemetry_overhead_loop<obs::noop::TelemetryRegistry, obs::noop::Span>(state,
                                                                           registry);
  }
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1);

void BM_RecorderRecordThroughput(benchmark::State& state) {
  trace::Recorder recorder("bench");
  trace::InstrumentedArray<std::uint32_t> a(recorder, "a", 4096, 16);
  trace::InstrumentedArray<std::uint32_t> b(recorder, "b", 4096, 16);
  constexpr std::size_t kAccessesPerIteration = 16;
  for (auto _ : state) {
    trace::Iteration scope(recorder, "body");
    for (std::size_t i = 0; i < kAccessesPerIteration / 2; ++i) {
      benchmark::DoNotOptimize(a.read(i));
      b.write((i * 7) & 4095u, static_cast<std::uint32_t>(i));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kAccessesPerIteration));
}
BENCHMARK(BM_RecorderRecordThroughput);

// The stack-distance reuse simulation on an encode-like read trace (row
// scans with parent-style revisits and a sprinkle of random jumps), across
// a codec-like window ladder: one pass per read prices all four windows.
void BM_RecorderReuseWindow(benchmark::State& state) {
  trace::Recorder recorder("bench");
  // An address space twice the largest window: like the codec's frame, the
  // row-buffer-sized window captures real reuse instead of pure thrashing.
  constexpr std::uint64_t kWords = 1 << 13;
  const auto a = recorder.register_array("a", kWords, 16);
  recorder.set_reuse_windows(a, std::vector<std::uint64_t>{4, 12, 256, 4096});

  support::Rng rng(5);
  std::vector<std::uint64_t> trace_indices(8192);
  for (std::size_t i = 0; i < trace_indices.size(); ++i) {
    const std::uint64_t sequential = (i * 3) % kWords;
    switch (i & 7u) {
      case 3: trace_indices[i] = (sequential + kWords - 256) % kWords; break;  // one row up
      case 7: trace_indices[i] = rng.below(kWords); break;
      default: trace_indices[i] = sequential;
    }
  }
  // Codec-sized iteration scopes (a handful of accesses each) keep the
  // recorder's per-iteration aggregation at its share of a profiling run.
  constexpr std::size_t kPerIteration = 8;
  for (auto _ : state) {
    for (std::size_t base = 0; base < trace_indices.size(); base += kPerIteration) {
      trace::Iteration scope(recorder, "body");
      for (std::size_t i = base; i < base + kPerIteration; ++i) {
        recorder.record(a, trace_indices[i], ir::AccessKind::kRead);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace_indices.size()));
}
BENCHMARK(BM_RecorderReuseWindow);

// Per-iteration aggregation on btpc-encode-shaped iterations: 24 events,
// with same-index reads across arrays (pixel + prediction, three Huffman
// tree arrays per node walked) and same-index writes, so the co-access
// counting finds real pairs among many non-pairs.  No reuse windows are set:
// this times the recording and aggregation layer alone.
void BM_RecorderCoAccess(benchmark::State& state) {
  trace::Recorder recorder("bench");
  constexpr std::uint64_t kWidth = 256;
  const auto image = recorder.register_array("image", kWidth * kWidth, 8);
  const auto pred = recorder.register_array("pred", kWidth * kWidth, 8);
  const auto residual = recorder.register_array("residual", kWidth * kWidth, 9);
  const auto recon = recorder.register_array("recon", kWidth * kWidth, 8);
  const auto weight = recorder.register_array("tree_weight", 1024, 16);
  const auto parent = recorder.register_array("tree_parent", 1024, 10);
  const auto child = recorder.register_array("tree_child", 1024, 10);
  const auto context = recorder.register_array("context", 256, 16);

  struct Event {
    trace::ArrayId array;
    std::uint64_t index;
    ir::AccessKind kind;
  };
  constexpr auto kRead = ir::AccessKind::kRead;
  constexpr auto kWrite = ir::AccessKind::kWrite;
  constexpr std::size_t kPixels = 1024;
  constexpr std::size_t kPerIteration = 24;
  support::Rng rng(9);
  std::vector<Event> events;
  events.reserve(kPixels * kPerIteration);
  for (std::size_t i = 0; i < kPixels; ++i) {
    const std::uint64_t p = kWidth + 1 + (i * 7) % (kWidth * (kWidth - 2));
    for (const auto q : {p - 1, p + 1, p - kWidth, p + kWidth}) {
      events.push_back({image, q, kRead});
    }
    events.push_back({image, p, kRead});
    events.push_back({pred, p, kRead});
    events.push_back({residual, p, kWrite});
    events.push_back({recon, p, kWrite});
    std::uint64_t node = rng.below(1024);
    for (int level = 0; level < 4; ++level, node /= 2) {
      for (const auto array : {weight, parent, child}) {
        events.push_back({array, node, kRead});
      }
    }
    events.push_back({weight, node, kWrite});
    events.push_back({weight, node * 2, kWrite});
    events.push_back({context, p & 255u, kRead});
    events.push_back({context, (p + 1) & 255u, kRead});
  }
  if (events.size() != kPixels * kPerIteration) {
    state.SkipWithError("iteration shape is not 24 events");
    return;
  }
  for (auto _ : state) {
    for (std::size_t base = 0; base < events.size(); base += kPerIteration) {
      trace::Iteration scope(recorder, "encode");
      for (std::size_t i = base; i < base + kPerIteration; ++i) {
        recorder.record(events[i].array, events[i].index, events[i].kind);
      }
    }
  }
  benchmark::DoNotOptimize(recorder.total_events());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_RecorderCoAccess);

// Uninstrumented wrapper accesses; the Release target for this is raw
// std::vector indexing speed (bounds checks compile out, one null test).
void BM_UninstrumentedArrayAccess(benchmark::State& state) {
  trace::InstrumentedArray<std::uint32_t> a("a", 4096);
  std::uint32_t acc = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 4096; ++i) {
      a.write(i, acc);
      acc += a.read((i * 13) & 4095u);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 2 * 4096);
}
BENCHMARK(BM_UninstrumentedArrayAccess);

// --- btpc substrate ----------------------------------------------------------

void BM_BitWriterThroughput(benchmark::State& state) {
  for (auto _ : state) {
    btpc::BitWriter writer;
    for (std::uint32_t i = 0; i < 4096; ++i) writer.put(i & 0x1FFu, 9);
    benchmark::DoNotOptimize(writer.finish());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BitWriterThroughput);

void BM_BitReaderThroughput(benchmark::State& state) {
  btpc::BitWriter writer;
  for (std::uint32_t i = 0; i < 4096; ++i) writer.put(i & 0x1FFu, 9);
  const auto words = writer.finish();
  for (auto _ : state) {
    btpc::BitReader reader(words);
    std::uint32_t acc = 0;
    for (std::uint32_t i = 0; i < 4096; ++i) acc ^= reader.get(9);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BitReaderThroughput);

// Rate estimation: code_length over the whole alphabet, served from the
// cached table (one lazy tree sweep per model change).
void BM_HuffmanCodeLength(benchmark::State& state) {
  entropy::AdaptiveHuffmanBank bank;
  btpc::BitWriter writer;
  for (int i = 0; i < 5000; ++i) {
    bank.encode(i % entropy::AdaptiveHuffmanBank::kCoders, (i * 7) % 64, writer);
  }
  for (auto _ : state) {
    int total = 0;
    for (int coder = 0; coder < entropy::AdaptiveHuffmanBank::kCoders; ++coder) {
      for (int symbol = 0; symbol < entropy::AdaptiveHuffmanBank::kSymbols; ++symbol) {
        total += bank.code_length(coder, symbol);
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * entropy::AdaptiveHuffmanBank::kCoders *
                          entropy::AdaptiveHuffmanBank::kSymbols);
}
BENCHMARK(BM_HuffmanCodeLength);

// --- entropy roster ----------------------------------------------------------

// One batch encode + decode round trip per backend over the same mixed
// residual corpus (mostly small values, a sprinkle of escapes), so the four
// coders are directly comparable at identical input statistics.
void entropy_batch_roundtrip(benchmark::State& state, entropy::Backend backend) {
  support::Rng rng(11);
  std::vector<std::uint32_t> values(4096);
  for (auto& v : values) {
    v = static_cast<std::uint32_t>(rng.below(16) == 0 ? 200 + rng.below(3800)
                                                      : rng.below(48));
  }
  entropy::CoderOptions options;
  for (auto _ : state) {
    const auto batch = entropy::encode_batch(backend, values, options);
    auto decoded = entropy::try_decode_batch(batch);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(values.size()));
}

void BM_EntropyHuffman(benchmark::State& state) {
  entropy_batch_roundtrip(state, entropy::Backend::kHuffman);
}
BENCHMARK(BM_EntropyHuffman);

void BM_EntropyRice(benchmark::State& state) {
  entropy_batch_roundtrip(state, entropy::Backend::kRice);
}
BENCHMARK(BM_EntropyRice);

void BM_EntropyExpGolomb(benchmark::State& state) {
  entropy_batch_roundtrip(state, entropy::Backend::kExpGolomb);
}
BENCHMARK(BM_EntropyExpGolomb);

void BM_EntropyRans(benchmark::State& state) {
  entropy_batch_roundtrip(state, entropy::Backend::kRans);
}
BENCHMARK(BM_EntropyRans);

// --- conflict graph ----------------------------------------------------------

graph::ConflictGraph make_conflict_graph(int nodes) {
  graph::ConflictGraph g;
  for (int i = 0; i < nodes; ++i) {
    for (int j = i; j < nodes; ++j) {
      if ((i * 31 + j) % 3 == 0) {
        g.add_conflict(ir::BasicGroupId(static_cast<std::uint32_t>(i)),
                       ir::BasicGroupId(static_cast<std::uint32_t>(j)),
                       1.0 + static_cast<double>(j));
      }
    }
  }
  return g;
}

// The branch-and-bound solver's inner-loop queries: conflicts() and
// conflict_weight() over every pair.
void BM_ConflictGraphQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto g = make_conflict_graph(n);
  for (auto _ : state) {
    double weight = 0.0;
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i; j < n; ++j) {
        const ir::BasicGroupId a(static_cast<std::uint32_t>(i));
        const ir::BasicGroupId b(static_cast<std::uint32_t>(j));
        hits += g.conflicts(a, b) ? 1 : 0;
        weight += g.conflict_weight(a, b);
      }
    }
    benchmark::DoNotOptimize(weight);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n * (n + 1));  // two queries per pair
}
BENCHMARK(BM_ConflictGraphQuery)->Arg(20)->Arg(64);

void BM_ConflictGraphCliqueBound(benchmark::State& state) {
  const auto g = make_conflict_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.clique_lower_bound());
  }
}
BENCHMARK(BM_ConflictGraphCliqueBound)->Arg(20)->Arg(64);

// --- exploration sweeps ------------------------------------------------------

// The cycle-budget sweep at different parallelism settings; results are
// bit-identical across the settings, only wall-clock changes.  Real time is
// the relevant axis for thread scaling.
void BM_ExploreCycleBudgetSweep(benchmark::State& state) {
  const auto& app = demo_app();
  core::Explorer explorer{memlib::MemoryLibrary{}};
  core::ExplorerOptions options;
  options.parallelism = static_cast<unsigned>(state.range(0));
  const std::vector<std::uint64_t> budgets = {20'000'000, 18'000'000, 16'000'000,
                                              14'000'000, 12'000'000, 11'000'000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.explore_cycle_budgets(app, budgets, options));
  }
}
BENCHMARK(BM_ExploreCycleBudgetSweep)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The hyperspectral workload's kernel: one uninstrumented lossless encode of
// the cube the workload would profile at an Arg-sample spatial edge.
void BM_HyperspecEncode(benchmark::State& state) {
  workloads::WorkloadOptions profile_options;
  profile_options.profile_size = static_cast<int>(state.range(0));
  const auto shape = workloads::HyperspecWorkload{}.profile_shape(profile_options);
  const auto cube = hyperspec::make_synthetic_cube(shape, 7);
  hyperspec::Encoder encoder(shape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(cube, {}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(shape.samples()));
}
BENCHMARK(BM_HyperspecEncode)->Arg(64)->Arg(128);

// The motion workload's kernel: one uninstrumented block-matching run (Arg =
// frame edge; 0 selects full search instead of the default three-step).
void BM_MotionEstimate(benchmark::State& state) {
  const int edge = static_cast<int>(state.range(0));
  motion::MotionOptions options;
  if (state.range(1) == 0) options.search = motion::SearchStrategy::kFullSearch;
  const auto frames = motion::make_synthetic_frame_pair(edge, edge, 7);
  motion::Estimator estimator(edge, edge, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(frames.reference, frames.current));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(edge) * edge);
}
BENCHMARK(BM_MotionEstimate)->Args({96, 1})->Args({96, 0})->Args({176, 1});

// The motion workload's exploration path: profile once outside the timed
// region, then sweep the allocation counts of its memory organization.
void BM_ExploreMotion(benchmark::State& state) {
  static const auto profiled = [] {
    workloads::WorkloadOptions options;
    options.profile_size = 64;
    return workloads::find_workload("motion")->profile(options);
  }();
  core::Explorer explorer{memlib::MemoryLibrary{}};
  const std::vector<int> counts = {4, 8, 12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.explore_allocation_counts(profiled, counts));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(counts.size()));
}
BENCHMARK(BM_ExploreMotion)->Unit(benchmark::kMillisecond);

// The multi-workload exploration path: merge the registered workloads'
// profiled models and sweep the shared memory organization across allocation
// counts (profiles are built once outside the timed region).  Since the
// roster grew to four workloads (btpc, hyperspec, line_buffer, motion) this
// times the 4-workload merged model.
void BM_ExploreMultiWorkload(benchmark::State& state) {
  static const auto tuned = [] {
    std::vector<std::pair<std::string, ir::Application>> models;
    workloads::WorkloadOptions options;
    options.profile_size = 64;
    for (const auto name : workloads::workload_names()) {
      const auto* workload = workloads::find_workload(name);
      models.emplace_back(std::string(name),
                          workload->tuned_variant(workload->profile(options)));
    }
    return models;
  }();
  std::vector<std::pair<std::string, const ir::Application*>> apps;
  for (const auto& [label, app] : tuned) apps.emplace_back(label, &app);
  core::Explorer explorer{memlib::MemoryLibrary{}};
  const std::vector<int> counts = {6, 10, 14};
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.explore_shared_allocation_counts(apps, counts));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(counts.size()));
}
BENCHMARK(BM_ExploreMultiWorkload)->Unit(benchmark::kMillisecond);

// The persistence layer: APP1 serialize + hardened deserialize of a real
// profiled model (what every cache store/load pays beyond the file I/O).
void BM_PersistRoundTrip(benchmark::State& state) {
  static const auto profiled = [] {
    workloads::WorkloadOptions options;
    options.profile_size = 64;
    return workloads::find_workload("motion")->profile(options);
  }();
  for (auto _ : state) {
    const auto bytes = persist::serialize(profiled);
    auto back = persist::try_deserialize_application(bytes);
    if (!back.ok()) state.SkipWithError("round trip failed");
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_PersistRoundTrip)->Unit(benchmark::kMicrosecond);

// A profile-cache hit end-to-end (file read + integrity checks + parse) —
// the cost a cached sweep pays instead of re-running the trace simulation.
void BM_ProfileCacheHit(benchmark::State& state) {
  static auto* cache = [] {
    auto* opened = new persist::ProfileCache("/tmp/dtse_bench_profile_cache");
    workloads::WorkloadOptions options;
    options.profile_size = 64;
    const auto* workload = workloads::find_workload("motion");
    (void)workloads::profile_cached(*workload, options, opened);
    return opened;
  }();
  workloads::WorkloadOptions options;
  options.profile_size = 64;
  const auto key = workloads::profile_cache_key("motion", options);
  for (auto _ : state) {
    auto hit = cache->load(key);
    if (!hit.has_value()) state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_ProfileCacheHit)->Unit(benchmark::kMicrosecond);

// The acceptance-criterion macro run: profile a 256x256 BTPC encode and feed
// the model through one full evaluation.
void BM_ProfiledFeedback256(benchmark::State& state) {
  core::BtpcCaseOptions options;
  options.profile_width = 256;
  options.profile_height = 256;
  core::Explorer explorer{memlib::MemoryLibrary{}};
  for (auto _ : state) {
    const auto app = core::profile_btpc_demonstrator(options);
    benchmark::DoNotOptimize(explorer.evaluate(app));
  }
}
BENCHMARK(BM_ProfiledFeedback256)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
