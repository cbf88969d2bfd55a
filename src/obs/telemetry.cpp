#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/json.hpp"

namespace dtse::obs {

namespace {

void write_trace_events(std::ostream& os, const std::vector<TraceEvent>& events) {
  JsonWriter json(os);
  json.begin_object();
  json.key("displayTimeUnit");
  json.value("ms");
  json.key("traceEvents");
  json.begin_array();
  // Process metadata first so the trace names itself in the viewer.
  json.begin_object();
  json.key("name");
  json.value("process_name");
  json.key("ph");
  json.value("M");
  json.key("pid");
  json.value(std::uint64_t{1});
  json.key("tid");
  json.value(std::uint64_t{0});
  json.key("args");
  json.begin_object();
  json.key("name");
  json.value("dtse");
  json.end_object();
  json.end_object();
  for (const auto& event : events) {
    json.begin_object();
    json.key("name");
    json.value(event.name);
    json.key("cat");
    json.value(event.category.empty() ? std::string_view("dtse")
                                      : std::string_view(event.category));
    json.key("ph");
    json.value(std::string_view(&event.phase, 1));
    json.key("pid");
    json.value(std::uint64_t{1});
    json.key("tid");
    json.value(static_cast<std::uint64_t>(event.lane));
    json.key("ts");
    json.value(event.start_us);
    if (event.phase == 'X') {
      json.key("dur");
      json.value(event.duration_us);
    }
    if (!event.args.empty()) {
      json.key("args");
      json.begin_object();
      for (const auto& [name, value] : event.args) {
        json.key(name);
        json.value(value);
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << '\n';
}

}  // namespace

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return fallback;
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) os << name << ' ' << value << '\n';
  for (const auto& [name, value] : gauges) os << name << ' ' << value << '\n';
  for (const auto& row : histograms) {
    os << row.name << " count " << row.count << " sum " << row.sum << " min " << row.min
       << " max " << row.max << '\n';
  }
  for (const auto& row : timings) {
    os << row.name << " count " << row.count << " total_us " << row.total_us << '\n';
  }
  return os.str();
}

void MetricsSnapshot::write_sections(JsonWriter& json) const {
  json.key("counters");
  json.begin_object();
  for (const auto& [name, value] : counters) {
    json.key(name);
    json.value(value);
  }
  json.end_object();

  json.key("gauges");
  json.begin_object();
  for (const auto& [name, value] : gauges) {
    json.key(name);
    json.value(value);
  }
  json.end_object();

  json.key("histograms");
  json.begin_object();
  for (const auto& row : histograms) {
    json.key(row.name);
    json.begin_object();
    json.key("count");
    json.value(row.count);
    json.key("sum");
    json.value(row.sum);
    json.key("min");
    json.value(row.min);
    json.key("max");
    json.value(row.max);
    json.end_object();
  }
  json.end_object();

  // Wall-clock durations: `total_us` is the one nondeterministic field a
  // snapshot carries, and report diffs allowlist exactly that key.
  json.key("timings");
  json.begin_object();
  for (const auto& row : timings) {
    json.key(row.name);
    json.begin_object();
    json.key("count");
    json.value(row.count);
    json.key("total_us");
    json.value(row.total_us);
    json.end_object();
  }
  json.end_object();
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  JsonWriter json(os);
  json.begin_object();
  write_sections(json);
  json.end_object();
  os << '\n';
}

std::uint32_t lane_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t lane = next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

std::int64_t now_us() {
  // Epoch = first call, so trace timestamps start near zero and stay well
  // inside the double mantissa Perfetto parses them into.
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Counter& TelemetryRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& TelemetryRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& TelemetryRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

void TelemetryRegistry::record_event(TraceEvent event, bool aggregate) {
  if (approx_events_.load(std::memory_order_relaxed) >= kMaxEvents) {
    counter("obs.dropped_events").add(1);
    return;
  }
  approx_events_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(event_mutex_);
  if (aggregate) {
    auto& agg = timings_[event.name];
    ++agg.count;
    agg.total_us += event.duration_us;
  }
  events_.push_back(std::move(event));
}

void TelemetryRegistry::reset() {
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }
  const std::lock_guard<std::mutex> lock(event_mutex_);
  events_.clear();
  timings_.clear();
  approx_events_.store(0, std::memory_order_relaxed);
}

std::size_t TelemetryRegistry::event_count() const {
  const std::lock_guard<std::mutex> lock(event_mutex_);
  return events_.size();
}

std::vector<TraceEvent> TelemetryRegistry::trace_events() const {
  const std::lock_guard<std::mutex> lock(event_mutex_);
  return events_;
}

MetricsSnapshot TelemetryRegistry::snapshot() const {
  MetricsSnapshot snapshot;
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    snapshot.counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      snapshot.counters.emplace_back(name, counter->value());
    }
    for (const auto& [name, gauge] : gauges_) {
      snapshot.gauges.emplace_back(name, gauge->value());
    }
    for (const auto& [name, histogram] : histograms_) {
      snapshot.histograms.push_back({name, histogram->count(), histogram->sum(),
                                     histogram->min(), histogram->max()});
    }
  }
  const std::lock_guard<std::mutex> lock(event_mutex_);
  snapshot.timings.reserve(timings_.size());
  for (const auto& [name, agg] : timings_) {
    snapshot.timings.push_back({name, agg.count, agg.total_us});
  }
  return snapshot;
}

void TelemetryRegistry::write_chrome_trace(std::ostream& os) const {
  write_trace_events(os, trace_events());
}

TelemetryRegistry& TelemetryRegistry::global() {
  static TelemetryRegistry instance;
  return instance;
}

}  // namespace dtse::obs
