// Tests for the profiling infrastructure: recorder, instrumented arrays,
// LRU reuse simulation, and IR extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "oracles/co_access.hpp"
#include "oracles/reference_lru.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/instrumented_array.hpp"
#include "trace/recorder.hpp"

namespace dtse::trace {
namespace {

TEST(Recorder, CountsReadsAndWritesPerBody) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  for (int i = 0; i < 10; ++i) {
    IterationScope scope(&rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
  }
  const auto app = rec.build();
  ASSERT_EQ(app.body_count(), 1u);
  const auto& body = app.body(ir::LoopBodyId(0));
  EXPECT_EQ(body.iterations, 10u);
  const auto totals = app.totals(ir::BasicGroupId(0));
  EXPECT_DOUBLE_EQ(totals.reads, 20.0);
  EXPECT_DOUBLE_EQ(totals.writes, 10.0);
}

TEST(Recorder, StrideStatistics) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 1000, 8);
  // Pure stride-1 scan.
  for (int i = 0; i < 100; ++i) {
    IterationScope scope(&rec, "seq");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
  }
  // Stride-2 scan.
  for (int i = 0; i < 100; ++i) {
    IterationScope scope(&rec, "dense2");
    rec.record(a, static_cast<std::uint64_t>(2 * i), ir::AccessKind::kRead);
  }
  // Random-ish (large stride).
  for (int i = 0; i < 100; ++i) {
    IterationScope scope(&rec, "sparse");
    rec.record(a, static_cast<std::uint64_t>(7 * i), ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  const auto& seq = app.body(ir::LoopBodyId(0)).accesses[0];
  EXPECT_NEAR(seq.stride1_fraction, 0.99, 0.011);
  EXPECT_NEAR(seq.dense_fraction, 0.99, 0.011);
  EXPECT_NEAR(seq.dense_stride, 1.0, 1e-9);
  const auto& dense2 = app.body(ir::LoopBodyId(1)).accesses[0];
  EXPECT_NEAR(dense2.stride1_fraction, 0.0, 1e-9);
  EXPECT_NEAR(dense2.dense_fraction, 0.99, 0.011);
  EXPECT_NEAR(dense2.dense_stride, 2.0, 1e-9);
  const auto& sparse = app.body(ir::LoopBodyId(2)).accesses[0];
  EXPECT_NEAR(sparse.dense_fraction, 0.0, 1e-9);
}

TEST(Recorder, CoAccessDetection) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  const auto b = rec.register_array("b", 100, 2);
  for (int i = 0; i < 50; ++i) {
    IterationScope scope(&rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(b, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);  // same index
    rec.record(b, static_cast<std::uint64_t>(i + 1), ir::AccessKind::kWrite);  // not
  }
  const auto app = rec.build();
  const auto& body = app.body(ir::LoopBodyId(0));
  ASSERT_EQ(body.co_accesses.size(), 1u);
  EXPECT_DOUBLE_EQ(body.co_accesses[0].pairs_per_iteration, 1.0);
  const auto& acc_a = body.accesses[body.co_accesses[0].access_a];
  const auto& acc_b = body.accesses[body.co_accesses[0].access_b];
  EXPECT_EQ(acc_a.kind, ir::AccessKind::kRead);
  EXPECT_EQ(acc_b.kind, ir::AccessKind::kRead);
  EXPECT_NE(acc_a.group, acc_b.group);
}

TEST(Recorder, CoAccessMatchesPairwiseOracle) {
  using oracle::CoAccessKey;
  Recorder rec("app");
  std::vector<ArrayId> arrays;
  for (int i = 0; i < 4; ++i) {
    arrays.push_back(rec.register_array("a" + std::to_string(i), 64, 8));
  }
  const std::vector<std::string> bodies{"first", "second"};
  std::vector<std::map<CoAccessKey, std::uint64_t>> expected(bodies.size());
  std::vector<std::uint64_t> iterations(bodies.size(), 0);
  const auto run = [&](std::size_t body, const std::vector<oracle::Event>& events) {
    IterationScope scope(&rec, bodies[body]);
    for (const auto& e : events) rec.record(e.array, e.index, e.kind);
    oracle::count_co_accesses(events, expected[body]);
    ++iterations[body];
  };

  // Duplicate same-array same-index reads pair twice with a third array's
  // read; a read and a write at one index never pair.
  run(0, {{0, 5, ir::AccessKind::kRead},
          {0, 5, ir::AccessKind::kRead},
          {1, 5, ir::AccessKind::kRead},
          {2, 5, ir::AccessKind::kWrite},
          {3, 5, ir::AccessKind::kWrite}});
  run(0, {});
  run(1, {{2, 9, ir::AccessKind::kWrite}});

  support::Rng rng(17);
  const auto random_iteration = [&](std::size_t events) {
    std::vector<oracle::Event> out;
    for (std::size_t i = 0; i < events; ++i) {
      out.push_back({arrays[rng.below(arrays.size())], rng.below(6),
                     rng.below(3) == 0 ? ir::AccessKind::kWrite : ir::AccessKind::kRead});
    }
    return out;
  };
  // Empty, single-event, typical and wider-than-64 iterations (the key table
  // starts at 16 buckets and must grow).
  for (int i = 0; i < 300; ++i) {
    std::size_t size = rng.below(30);
    if (i % 10 < 2) size = i % 10;
    if (i % 10 == 2) size = 65 + rng.below(60);
    run(rng.below(2), random_iteration(size));
    // An array registered after both bodies were first seen: the dense
    // co-access matrices must be remapped, keeping their counts.
    if (i == 150) arrays.push_back(rec.register_array("late", 64, 8));
  }

  const auto app = rec.build();
  ASSERT_EQ(app.body_count(), bodies.size());
  for (std::size_t b = 0; b < bodies.size(); ++b) {
    const auto& body = app.body(ir::LoopBodyId(static_cast<std::uint32_t>(b)));
    std::map<CoAccessKey, double> actual;
    for (const auto& co : body.co_accesses) {
      const auto& first = body.accesses[co.access_a];
      const auto& second = body.accesses[co.access_b];
      ASSERT_EQ(first.kind, second.kind);
      ASSERT_LT(first.group.value(), second.group.value());
      actual[{first.kind, first.group.value(), second.group.value()}] =
          co.pairs_per_iteration;
    }
    ASSERT_EQ(actual.size(), expected[b].size()) << bodies[b];
    for (const auto& [key, pairs] : expected[b]) {
      ASSERT_TRUE(actual.count(key)) << bodies[b];
      const double iters = static_cast<double>(iterations[b]);
      EXPECT_EQ(actual[key], static_cast<double>(pairs) / iters) << bodies[b];
    }
  }
}

TEST(Recorder, DifferentKindsDoNotCoAccess) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  const auto b = rec.register_array("b", 100, 2);
  for (int i = 0; i < 10; ++i) {
    IterationScope scope(&rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(b, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
  }
  const auto app = rec.build();
  EXPECT_TRUE(app.body(ir::LoopBodyId(0)).co_accesses.empty());
}

TEST(Recorder, DependencySkeletonIsAcyclicAndMeaningful) {
  Recorder rec("app");
  const auto in = rec.register_array("in", 100, 8);
  const auto out = rec.register_array("out", 100, 8);
  for (int i = 0; i < 5; ++i) {
    IterationScope scope(&rec, "body");
    rec.record(in, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(out, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
    rec.record(out, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    rec.record(in, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
  }
  const auto app = rec.build();
  EXPECT_NO_THROW(app.validate());  // validates acyclicity
  const auto& body = app.body(ir::LoopBodyId(0));
  // read(in) must gate write(out).
  bool found = false;
  for (const auto& [from, to] : body.deps) {
    if (body.accesses[from].group == ir::BasicGroupId(0) &&
        body.accesses[from].kind == ir::AccessKind::kRead &&
        body.accesses[to].group == ir::BasicGroupId(1) &&
        body.accesses[to].kind == ir::AccessKind::kWrite) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Recorder, LruMissesForKnownPattern) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  rec.set_reuse_windows(a, {{2, 2}, {4, 4}});
  // Cyclic scan over 4 addresses, 10 rounds: window 2 misses every access
  // (LRU thrashing), window 4 misses only the 4 first touches.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) {
      IterationScope scope(&rec, "body");
      rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kRead);
    }
  }
  const auto app = rec.build();
  const auto* profile = app.reuse_profile(ir::BasicGroupId(0));
  ASSERT_NE(profile, nullptr);
  ASSERT_EQ(profile->windows.size(), 2u);
  EXPECT_DOUBLE_EQ(profile->windows[0].misses_per_frame, 40.0);
  EXPECT_DOUBLE_EQ(profile->windows[1].misses_per_frame, 4.0);
}

TEST(Recorder, WritesDoNotTouchReuseSimulation) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  rec.set_reuse_windows(a, {{4, 4}});
  for (int i = 0; i < 10; ++i) {
    IterationScope scope(&rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i), ir::AccessKind::kWrite);
  }
  const auto app = rec.build();
  EXPECT_DOUBLE_EQ(app.reuse_profile(ir::BasicGroupId(0))->windows[0].misses_per_frame,
                   0.0);
}

TEST(Recorder, DeclaredWindowCapacitiesSurviveExtraction) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  rec.set_reuse_windows(a, {{4, 16}});
  {
    IterationScope scope(&rec, "body");
    rec.record(a, 0, ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  EXPECT_EQ(app.reuse_profile(ir::BasicGroupId(0))->windows[0].window_words, 16u);
}

TEST(Recorder, ScalingMultipliesIterationsAndMisses) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 100, 8);
  rec.set_reuse_windows(a, {{4, 4}});
  for (int i = 0; i < 10; ++i) {
    IterationScope scope(&rec, "body");
    rec.record(a, static_cast<std::uint64_t>(i % 8), ir::AccessKind::kRead);
  }
  const auto app = rec.build(4.0);
  EXPECT_EQ(app.body(ir::LoopBodyId(0)).iterations, 40u);
  // per-iteration intensity unchanged:
  EXPECT_DOUBLE_EQ(app.body(ir::LoopBodyId(0)).accesses[0].per_iteration, 1.0);
  EXPECT_DOUBLE_EQ(app.reuse_profile(ir::BasicGroupId(0))->windows[0].misses_per_frame,
                   10.0 * 4.0);
}

TEST(Recorder, NestingAndMisuseRejected) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 10, 8);
  EXPECT_THROW(rec.record(a, 0, ir::AccessKind::kRead), support::ContractError);
  rec.begin_iteration("x");
  EXPECT_THROW(rec.begin_iteration("y"), support::ContractError);
  rec.end_iteration();
  EXPECT_THROW(rec.end_iteration(), support::ContractError);
}

TEST(Recorder, DuplicateArrayNameRejected) {
  Recorder rec("app");
  rec.register_array("a", 10, 8);
  EXPECT_THROW(rec.register_array("a", 20, 8), support::ContractError);
}

TEST(Recorder, ForcedLocationPropagates) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 10, 8, memlib::Location::kOnChip);
  {
    IterationScope scope(&rec, "body");
    rec.record(a, 0, ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  EXPECT_EQ(app.group(ir::BasicGroupId(0)).forced_location, memlib::Location::kOnChip);
}

TEST(InstrumentedArray, RecordsOnlyInsideIterations) {
  Recorder rec("app");
  InstrumentedArray<int> arr(&rec, "arr", 16, 8);
  arr.write(3, 42);  // outside a scope: untracked
  {
    IterationScope scope(&rec, "body");
    EXPECT_EQ(arr.read(3), 42);
    arr.write(4, 1);
  }
  const auto app = rec.build();
  const auto totals = app.totals(ir::BasicGroupId(0));
  EXPECT_DOUBLE_EQ(totals.reads, 1.0);
  EXPECT_DOUBLE_EQ(totals.writes, 1.0);
}

TEST(InstrumentedArray, BoundsChecked) {
  InstrumentedArray<int> arr(nullptr, "arr", 4, 8);
  EXPECT_THROW((void)arr.read(4), support::ContractError);
  EXPECT_THROW(arr.write(4, 0), support::ContractError);
}

TEST(InstrumentedArray, DeclaredWordsOverrideActualSize) {
  Recorder rec("app");
  InstrumentedArray<int> arr(&rec, "arr", 16, 8, 0, 1024);
  {
    IterationScope scope(&rec, "body");
    arr.write(0, 1);
  }
  const auto app = rec.build();
  EXPECT_EQ(app.group(ir::BasicGroupId(0)).words, 1024u);
}

TEST(InstrumentedArray2D, RowMajorIndexing) {
  Recorder rec("app");
  InstrumentedArray2D<int> arr(&rec, "arr", 4, 3, 8);
  {
    IterationScope scope(&rec, "body");
    arr.write(1, 2, 7);
    EXPECT_EQ(arr.read(1, 2), 7);
  }
  EXPECT_THROW((void)arr.read(4, 0), support::ContractError);
  EXPECT_THROW((void)arr.read(0, 3), support::ContractError);
  const auto app = rec.build();
  EXPECT_EQ(app.group(ir::BasicGroupId(0)).words, 12u);
}

// --- reuse simulation against an independent LRU oracle ---------------------
// (tests/oracles/reference_lru.hpp)

using oracle::ReferenceLru;

/// Replays `trace` as reads of one array through a `Recorder` and returns
/// the per-window miss counts of the built reuse profile.
std::vector<double> recorder_misses(const std::vector<std::uint64_t>& windows,
                                    const std::vector<std::uint64_t>& trace) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 1 << 20, 8);
  std::vector<Recorder::WindowSpec> specs;
  for (const auto w : windows) specs.push_back({w, w});
  rec.set_reuse_windows(a, std::move(specs));
  for (const auto index : trace) {
    IterationScope scope(&rec, "body");
    rec.record(a, index, ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  std::vector<double> misses;
  for (const auto& window : app.reuse_profile(ir::BasicGroupId(0))->windows) {
    misses.push_back(window.misses_per_frame);
  }
  return misses;
}

/// Mixed access trace: sequential runs, row-back revisits, random jumps —
/// the shapes the codec's parent reads produce.
std::vector<std::uint64_t> mixed_trace(std::uint64_t span, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::uint64_t> trace;
  trace.reserve(20'000);
  std::uint64_t cursor = 0;
  for (int i = 0; i < 20'000; ++i) {
    switch (i % 8) {
      case 3: trace.push_back((cursor + span - 37) % span); break;
      case 5: trace.push_back(rng.below(span)); break;
      default: trace.push_back(cursor = (cursor + 1) % span);
    }
  }
  return trace;
}

TEST(ReuseSim, MatchesReferenceLruAtEveryWindow) {
  // 64 is listed twice: the recorder keeps one window per capacity.
  const std::vector<std::uint64_t> windows{1, 2, 4, 63, 64, 64, 65, 128, 1024};
  const std::vector<std::uint64_t> distinct{1, 2, 4, 63, 64, 65, 128, 1024};
  const std::uint64_t largest = distinct.back();
  struct Case {
    const char* name;
    std::vector<std::uint64_t> trace;
  };
  std::vector<Case> cases;
  // 20k reads over 4096 indices: more reads than the 4 * 1024 access slots
  // (forces compaction) and more distinct indices than the largest window
  // (forces eviction).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    cases.push_back({"mixed 4096", mixed_trace(4096, seed)});
  }
  // A working set that fits the largest window: compaction without eviction.
  cases.push_back({"mixed 700", mixed_trace(700, 4)});
  // Cyclic scans just above and below the largest window (LRU's worst case).
  for (const std::uint64_t span : {largest - 1, largest, largest + 1}) {
    std::vector<std::uint64_t> trace;
    for (std::uint64_t i = 0; i < 6 * span; ++i) trace.push_back(i % span);
    cases.push_back({"cyclic", std::move(trace)});
  }
  // Uniform random over a span far wider than the largest window.
  {
    support::Rng rng(11);
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 10'000; ++i) trace.push_back(rng.below(1 << 16));
    cases.push_back({"random 65536", std::move(trace)});
  }

  for (const auto& c : cases) {
    ASSERT_GT(c.trace.size(), 4 * largest) << c.name;
    const auto misses = recorder_misses(windows, c.trace);
    ASSERT_EQ(misses.size(), distinct.size()) << c.name;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      ReferenceLru oracle(distinct[i]);
      for (const auto index : c.trace) oracle.touch(index);
      EXPECT_DOUBLE_EQ(misses[i], static_cast<double>(oracle.misses()))
          << c.name << ", window " << distinct[i];
    }
  }
}

/// Runs `trace` through one `ReuseSim` over `capacities` and checks every
/// window's misses against its own `ReferenceLru`.
void expect_matches_reference_lru(const std::vector<std::uint64_t>& capacities,
                                  const std::vector<std::uint64_t>& trace,
                                  const std::string& name) {
  ReuseSim sim;
  sim.init(capacities);
  for (const auto index : trace) sim.touch(index);
  for (std::size_t w = 0; w < capacities.size(); ++w) {
    ReferenceLru oracle(capacities[w]);
    for (const auto index : trace) oracle.touch(index);
    EXPECT_EQ(sim.misses(w), oracle.misses()) << name << ", window " << capacities[w];
  }
}

TEST(ReuseSim, MatchesReferenceLruOnBoundaryEdgeCases) {
  const std::vector<std::uint64_t> ladder{1, 2, 4, 8, 32};
  support::Rng rng(21);
  // Back-to-back repeats (distance 0): the read's previous slot is the
  // boundary of every full window, which must move past it.
  {
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t index = rng.below(48);
      for (std::uint64_t r = 0; r <= rng.below(4); ++r) trace.push_back(index);
    }
    expect_matches_reference_lru(ladder, trace, "repeats");
  }
  // A working set that grows by one index per read, with revisits, so the
  // windows fill one after another while reads keep hitting.
  {
    std::vector<std::uint64_t> trace;
    for (std::uint64_t k = 0; k < 3 * ladder.back(); ++k) {
      trace.push_back(k);
      trace.push_back(rng.below(k + 1));
      trace.push_back(k - rng.below(k + 1) / 4);
    }
    expect_matches_reference_lru(ladder, trace, "growing");
  }
  // Capacity-1 windows at the bottom of short ladders, and alone.
  for (const auto& small : {std::vector<std::uint64_t>{1},
                            std::vector<std::uint64_t>{1, 3},
                            std::vector<std::uint64_t>{1, 2, 5}}) {
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 200; ++i) {
      trace.push_back(rng.below(4) == 0 && !trace.empty() ? trace.back() : rng.below(8));
    }
    expect_matches_reference_lru(small, trace, "capacity-1 ladder");
  }
  // A working set between two capacities and a trace far longer than four
  // times the largest: slots compact while only the small windows are full.
  {
    const std::vector<std::uint64_t> wide{2, 8, 64, 512};
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 5'000; ++i) {
      trace.push_back(i % 5 == 0 ? rng.below(30) : static_cast<std::uint64_t>(i % 30));
    }
    expect_matches_reference_lru(wide, trace, "between capacities");
  }
  // Seeded random ladders of 1-8 capacities up to 2048, each over a trace
  // longer than four times its largest capacity (the slot space: every case
  // compacts).
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng ladder_rng(100 + seed);
    std::vector<std::uint64_t> capacities;
    const std::uint64_t count = 1 + ladder_rng.below(8);
    while (capacities.size() < count) {
      const std::uint64_t c = 1 + ladder_rng.below(2048);
      if (std::find(capacities.begin(), capacities.end(), c) == capacities.end()) {
        capacities.push_back(c);
      }
    }
    std::sort(capacities.begin(), capacities.end());
    const std::uint64_t span = 1 + ladder_rng.below(2 * capacities.back() + 16);
    const auto trace = mixed_trace(span, seed);
    ASSERT_GT(trace.size(), 4 * capacities.back());
    expect_matches_reference_lru(capacities, trace,
                                 "random ladder " + std::to_string(seed));
  }
  // BTPC-shaped strided reads on the codec's window ladder (8 rungs, up to 16
  // rows of a 512-wide frame): passes over the lattice of points whose x and
  // y are multiples of 2^k, each read followed by the next finer level's
  // point below-right and to the right of it.  The indices share their low
  // k bits, so a hash that keeps low bits would cluster on them.
  constexpr std::uint64_t kRow = 512;
  const std::vector<std::uint64_t> btpc_ladder{
      4, 12, 64, 256, kRow, 5 * kRow / 2, 5 * kRow, 16 * kRow};
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const std::uint64_t step = std::uint64_t{1} << k;
    std::vector<std::uint64_t> trace;
    while (trace.size() <= 4 * btpc_ladder.back()) {
      for (std::uint64_t y = 0; y < 64; y += step) {
        for (std::uint64_t x = 0; x < kRow; x += step) {
          trace.push_back(y * kRow + x);
          trace.push_back((y + step / 2) * kRow + x + step / 2);
          trace.push_back(y * kRow + x + step / 2);
        }
      }
    }
    expect_matches_reference_lru(btpc_ladder, trace, "lattice 2^" + std::to_string(k));
  }
}

TEST(ReuseSim, DropsWindowsThatWouldInvertTheMissCurve) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 1 << 20, 8);
  // Declared 1024 simulates only 64 words, fewer than the 256-word rung;
  // declared 4096 simulates 256, no more than that rung either.
  rec.set_reuse_windows(a, {{4, 4}, {256, 256}, {64, 1024}, {256, 4096}, {512, 8192}});
  for (const auto index : mixed_trace(2048, 5)) {
    IterationScope scope(&rec, "body");
    rec.record(a, index, ir::AccessKind::kRead);
  }
  const auto app = rec.build();
  const auto& windows = app.reuse_profile(ir::BasicGroupId(0))->windows;
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].window_words, 4u);
  EXPECT_EQ(windows[1].window_words, 256u);
  EXPECT_EQ(windows[2].window_words, 8192u);
  EXPECT_GE(windows[0].misses_per_frame, windows[1].misses_per_frame);
  EXPECT_GE(windows[1].misses_per_frame, windows[2].misses_per_frame);
}

TEST(Recorder, BuildValidatesAndIsRepeatable) {
  Recorder rec("app");
  const auto a = rec.register_array("a", 10, 8);
  {
    IterationScope scope(&rec, "body");
    rec.record(a, 0, ir::AccessKind::kRead);
  }
  const auto app1 = rec.build();
  const auto app2 = rec.build();
  EXPECT_EQ(app1.group_count(), app2.group_count());
  EXPECT_EQ(app1.body_count(), app2.body_count());
}

}  // namespace
}  // namespace dtse::trace
