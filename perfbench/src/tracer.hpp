// Benchmark-side span tracing.
//
// Spans are recorded around the benchmark's own calls into the library's
// public API — the library itself is not touched.  Each span carries a
// layer (trace, persist, workloads, graph, scbd, alloc, core, bench), a
// name, its start/end on the steady clock, the thread lane it ran on and
// the id of the span that caused it, so a sweep's worker spans link back to
// the sweep that spawned them across threads.  Spans stay in memory and are
// written as Chrome-trace JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SpanRecord {
  std::string layer;
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 = root
  std::uint32_t lane = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< CPU time of the recording thread inside the span

  [[nodiscard]] double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
  [[nodiscard]] double cpu_ms() const { return static_cast<double>(cpu_ns) / 1e6; }
};

class Tracer {
 public:
  /// Pseudo parent id: link to the innermost open span of the calling thread.
  static constexpr int kInherit = -2;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  void clear();

  /// Chrome trace-event JSON of every recorded span; each event's args carry
  /// its id and parent id.
  void write_chrome_trace(std::ostream& os) const;

 private:
  friend class Span;
  int next_id();
  void record(SpanRecord span);

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  int next_id_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span.  A null tracer makes it a no-op, so untraced runs pay one
/// branch per call site.
class Span {
 public:
  Span(Tracer* tracer, std::string_view layer, std::string name,
       int parent = Tracer::kInherit);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  [[nodiscard]] int id() const { return record_.id; }
  [[nodiscard]] double elapsed_ms() const;

 private:
  Tracer* tracer_;
  SpanRecord record_;
  std::int64_t cpu_start_ns_ = 0;
  int saved_current_ = -1;
};

/// Per-layer analysis of one traced repetition (the spans under `root`).
struct LayerBreakdown {
  /// Self time per layer: each span's duration minus the part of its
  /// interval that its child spans cover (union across threads).
  std::map<std::string, double> self_ms;
  /// Summed thread CPU time per span-name prefix (text before the first
  /// '/'), e.g. "scbd.distribute_budget" — busy time across threads.  CPU
  /// time, not span duration: sweep workers that share cores are preempted
  /// mid-call, and that wait is not work.
  std::map<std::string, double> busy_ms;
  std::map<std::string, std::size_t> calls;
  /// Share of the root span's interval covered by its direct children.
  double coverage = 0.0;
  /// Summed per-point busy (CPU) time of every sweep divided by the summed
  /// sweep wall time (0 when the repetition ran no sweep).
  double sweep_speedup = 0.0;
  /// Summed per-point wall time minus CPU time: how long sweep points
  /// waited for a core.
  double sweep_wait_ms = 0.0;
};

[[nodiscard]] LayerBreakdown analyze(const std::vector<SpanRecord>& spans, int root);

}  // namespace perfbench
