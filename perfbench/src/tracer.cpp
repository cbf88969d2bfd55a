#include "tracer.hpp"

#include <time.h>

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

namespace {

thread_local int current_span = -1;

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

std::string prefix_of(const std::string& name) {
  return name.substr(0, name.find('/'));
}

}  // namespace

int Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const auto all = spans();
  dtse::obs::JsonWriter json(os);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  for (const auto& span : all) {
    json.begin_object();
    json.key("name");
    json.value(span.name);
    json.key("cat");
    json.value(span.layer);
    json.key("ph");
    json.value("X");
    json.key("pid");
    json.value(std::uint64_t{1});
    json.key("tid");
    json.value(static_cast<std::uint64_t>(span.lane));
    json.key("ts");
    json.value(static_cast<double>(span.start_ns) / 1e3);
    json.key("dur");
    json.value(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    json.key("args");
    json.begin_object();
    json.key("id");
    json.value(static_cast<std::int64_t>(span.id));
    json.key("parent");
    json.value(static_cast<std::int64_t>(span.parent));
    json.key("cpu_us");
    json.value(static_cast<double>(span.cpu_ns) / 1e3);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << '\n';
}

Span::Span(Tracer* tracer, std::string_view layer, std::string name, int parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.layer = layer;
  record_.name = std::move(name);
  record_.id = tracer_->next_id();
  record_.parent = parent == Tracer::kInherit ? current_span : parent;
  record_.lane = dtse::obs::lane_id();
  saved_current_ = current_span;
  current_span = record_.id;
  cpu_start_ns_ = thread_cpu_ns();
  record_.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - tracer_->epoch_)
                         .count();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - tracer_->epoch_)
                       .count();
  record_.cpu_ns = thread_cpu_ns() - cpu_start_ns_;
  current_span = saved_current_;
  tracer_->record(std::move(record_));
}

double Span::elapsed_ms() const {
  if (tracer_ == nullptr) return 0.0;
  const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - tracer_->epoch_)
                          .count();
  return static_cast<double>(now_ns - record_.start_ns) / 1e6;
}

LayerBreakdown analyze(const std::vector<SpanRecord>& spans, int root) {
  std::unordered_map<int, const SpanRecord*> by_id;
  std::unordered_map<int, std::vector<const SpanRecord*>> children;
  for (const auto& span : spans) {
    by_id[span.id] = &span;
    children[span.parent].push_back(&span);
  }
  LayerBreakdown out;
  const auto root_it = by_id.find(root);
  if (root_it == by_id.end()) return out;

  const auto child_intervals = [&](int id) {
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    for (const auto* child : children[id]) {
      intervals.emplace_back(child->start_ns, child->end_ns);
    }
    return intervals;
  };

  const auto& root_span = *root_it->second;
  if (root_span.end_ns > root_span.start_ns) {
    out.coverage = static_cast<double>(covered_ns(child_intervals(root),
                                                  root_span.start_ns, root_span.end_ns)) /
                   static_cast<double>(root_span.end_ns - root_span.start_ns);
  }

  double sweep_busy_ms = 0.0;
  double sweep_wall_ms = 0.0;
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    for (const auto* child : children[id]) stack.push_back(child->id);
    if (id == root) continue;
    const auto& span = *by_id[id];
    const auto self_ns = (span.end_ns - span.start_ns) -
                         covered_ns(child_intervals(id), span.start_ns, span.end_ns);
    out.self_ms[span.layer] += static_cast<double>(self_ns) / 1e6;
    const auto prefix = prefix_of(span.name);
    out.busy_ms[prefix] += span.cpu_ms();
    ++out.calls[prefix];
    if (prefix == "core.sweep") {
      sweep_wall_ms += span.duration_ms();
      for (const auto* child : children[id]) {
        sweep_busy_ms += child->cpu_ms();
        out.sweep_wait_ms += child->duration_ms() - child->cpu_ms();
      }
    }
  }
  if (sweep_wall_ms > 0.0) out.sweep_speedup = sweep_busy_ms / sweep_wall_ms;
  return out;
}

}  // namespace perfbench
