// Near-zero-overhead telemetry: counters, gauges, histograms, RAII spans.
//
// The explorer is a deterministic oracle that now spans four workloads, two
// solvers, a work-stealing loop and an on-disk profile cache; telemetry is
// the window into *where a run spends its time* without perturbing *what it
// computes*.  The layer therefore enforces one invariant end to end:
//
//   DETERMINISM — every Counter/Gauge/Histogram value is a pure function of
//   the run configuration (seed, chains, workload set), never of wall-clock
//   time or thread scheduling.  Timestamps exist only in span events, and
//   span events only reach the Chrome-trace export and the allowlisted
//   "timings" section of snapshots/reports.  Instrumentation sites must
//   never turn a duration into a counter.
//
// Pieces:
//   * `TelemetryRegistry` — named metrics created on demand (thread-safe,
//     stable addresses) plus a bounded, mutex-guarded trace-event buffer.
//     `TelemetryRegistry::global()` is the process-wide instance the
//     instrumented subsystems (solvers, parallel_for, explorer sweeps,
//     profile cache, recorder) report into.
//   * `Span` — RAII scope recording one Chrome "complete" event ('X'): begin
//     and end are taken in one shot at destruction, so every span is
//     balanced by construction — including under solver cancellation,
//     timeouts and exceptions.  Spans marked `aggregate` also fold their
//     duration into a per-name timing table for the run report.
//   * Exporters — `write_chrome_trace` (loadable in chrome://tracing /
//     Perfetto) and `MetricsSnapshot` (sorted flat snapshot with a JSON
//     form), both built on obs/json.hpp.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dtse::obs {

class JsonWriter;

/// Flat, sorted view of a registry at one instant.  Counters, gauges and
/// histogram aggregates are deterministic per run configuration; the
/// `timings` rows carry wall-clock totals and are the one section report
/// diffs must allowlist (`count` stays deterministic, `total_us` does not).
struct MetricsSnapshot {
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
  };
  struct TimingRow {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_us = 0;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramRow> histograms;
  std::vector<TimingRow> timings;

  /// Counter lookup by exact name; `fallback` when absent.
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;

  /// One "name value" line per metric, sorted — the flat text export.
  [[nodiscard]] std::string to_string() const;

  /// The flat JSON export: {"counters":{...},"gauges":{...},
  /// "histograms":{...},"timings":{...}}.
  void write_json(std::ostream& os) const;

  /// The four sections as keys of the currently open JSON object — shared by
  /// `write_json` and the run report's "metrics" section.
  void write_sections(JsonWriter& json) const;
};

/// One buffered trace event.  `phase` follows the Chrome trace-event format:
/// 'X' = complete (start + duration), 'M' = metadata.
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';
  std::uint32_t lane = 0;    ///< stable small thread id (trace "tid")
  std::int64_t start_us = 0; ///< microseconds since the process obs epoch
  std::int64_t duration_us = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// Stable small id of the calling thread (0 for the first thread that asks).
/// Used as the Chrome-trace "tid" so worker lanes render as separate rows.
[[nodiscard]] std::uint32_t lane_id();

/// Microseconds since the process telemetry epoch (first call).  Monotonic.
[[nodiscard]] std::int64_t now_us();

/// Monotonic event count.  Thread-safe, order-independent: any interleaving
/// of `add` calls yields the same total, so parallel sweeps stay
/// deterministic.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (e.g. "workloads selected").  Writers racing on a
/// gauge would be order-dependent; instrumentation sites only set gauges
/// from one thread per run.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed distribution of unsigned samples (value v lands in bucket
/// bit_width(v), so bucket 0 holds zeros and bucket k holds [2^(k-1), 2^k)).
/// count/sum/min/max and all buckets are order-independent.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void observe(std::uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    update_min(value);
    update_max(value);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  [[nodiscard]] std::uint64_t min() const {
    const auto v = min_.load(std::memory_order_relaxed);
    return v == std::numeric_limits<std::uint64_t>::max() && count() == 0 ? 0 : v;
  }
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  void update_min(std::uint64_t value) {
    auto current = min_.load(std::memory_order_relaxed);
    while (value < current &&
           !min_.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t value) {
    auto current = max_.load(std::memory_order_relaxed);
    while (value > current &&
           !max_.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

class TelemetryRegistry {
 public:
  /// Hard cap on buffered trace events: a runaway span source degrades to
  /// dropped events (counted in `obs.dropped_events`), never to unbounded
  /// memory.  Sized for full multi-workload sweeps with headroom.
  static constexpr std::size_t kMaxEvents = 262'144;

  TelemetryRegistry() = default;
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  /// Named metric, created on first use.  The returned reference is stable
  /// until `reset()`; hot paths should look up once and reuse.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Buffers one finished event (called by `Span`).  With `aggregate` the
  /// duration also folds into the per-name timing table.
  void record_event(TraceEvent event, bool aggregate);

  /// Drops all metrics and events.  Invalidates references returned by
  /// `counter`/`gauge`/`histogram`; only call between runs (tests, drivers).
  void reset();

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::vector<TraceEvent> trace_events() const;
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}), loadable in
  /// chrome://tracing and Perfetto.  Timestamps are microseconds since the
  /// process obs epoch.
  void write_chrome_trace(std::ostream& os) const;

  /// The process-wide registry every instrumented subsystem reports into.
  static TelemetryRegistry& global();

 private:
  struct TimingAgg {
    std::uint64_t count = 0;
    std::int64_t total_us = 0;
  };

  mutable std::mutex metrics_mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  mutable std::mutex event_mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::string, TimingAgg> timings_;
  /// Pre-mutex fast check for the event cap (approximate is fine: the cap
  /// is a memory guard, not an exact quota).
  std::atomic<std::size_t> approx_events_{0};
};

/// RAII span: one Chrome 'X' (complete) event from construction to
/// destruction, recorded in a single `record_event` call — begin/end pairs
/// cannot unbalance, whatever exits the scope (return, cancellation,
/// exception).  A null registry disables the span entirely.
class Span {
 public:
  Span(TelemetryRegistry* registry, std::string_view name, std::string_view category,
       bool aggregate = true)
      : registry_(registry), aggregate_(aggregate) {
    if (registry_ == nullptr) return;
    name_ = name;
    category_ = category;
    start_us_ = now_us();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// Attaches a numeric argument (rendered under "args" in the trace).
  void arg(std::string_view name, double value) {
    if (registry_ != nullptr) args_.emplace_back(std::string(name), value);
  }

  /// Records the event now instead of at destruction (idempotent).
  void finish() {
    if (registry_ == nullptr) return;
    TraceEvent event;
    event.name = std::move(name_);
    event.category = std::move(category_);
    event.phase = 'X';
    event.lane = lane_id();
    event.start_us = start_us_;
    event.duration_us = now_us() - start_us_;
    event.args = std::move(args_);
    registry_->record_event(std::move(event), aggregate_);
    registry_ = nullptr;
  }

 private:
  TelemetryRegistry* registry_;
  std::string name_;
  std::string category_;
  std::vector<std::pair<std::string, double>> args_;
  std::int64_t start_us_ = 0;
  bool aggregate_;
};

}  // namespace dtse::obs
