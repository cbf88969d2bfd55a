#include "obs/run_report.hpp"

#include <utility>

#include "obs/json.hpp"

namespace dtse::obs {

persist::CacheStats cache_stats_from(const MetricsSnapshot& snapshot) {
  persist::CacheStats stats;
  stats.hits = snapshot.counter_or("profile_cache.hits");
  stats.misses = snapshot.counter_or("profile_cache.misses");
  stats.stores = snapshot.counter_or("profile_cache.stores");
  stats.quarantined = snapshot.counter_or("profile_cache.quarantined");
  stats.evicted = snapshot.counter_or("profile_cache.evicted");
  stats.store_failures = snapshot.counter_or("profile_cache.store_failures");
  return stats;
}

void RunReport::add_point(std::string section, const core::Variant& variant) {
  add_point(std::move(section), variant.label, variant.eval);
}

void RunReport::add_point(std::string section, std::string label,
                          const core::Evaluation& eval) {
  ReportPoint point;
  point.section = std::move(section);
  point.label = std::move(label);
  point.feasible = eval.feasible;
  point.timed_out = eval.timed_out;
  point.error = eval.error;
  point.onchip_area_mm2 = eval.summary.onchip_area_mm2;
  point.onchip_power_mw = eval.summary.onchip_power_mw;
  point.offchip_power_mw = eval.summary.offchip_power_mw;
  point.spare_cycles = eval.spare_cycles;
  points.push_back(std::move(point));
}

void RunReport::add_convergence(std::string label, const core::Evaluation& eval) {
  if (eval.allocation.sa_chains.empty()) return;
  solver.push_back({std::move(label), eval.allocation.sa_chains});
}

namespace {

void write_cache(JsonWriter& json, const persist::CacheStats& cache) {
  json.begin_object();
  json.key("hits");
  json.value(cache.hits);
  json.key("misses");
  json.value(cache.misses);
  json.key("stores");
  json.value(cache.stores);
  json.key("quarantined");
  json.value(cache.quarantined);
  json.key("evicted");
  json.value(cache.evicted);
  json.key("store_failures");
  json.value(cache.store_failures);
  json.end_object();
}

void write_chains(JsonWriter& json, const std::vector<alloc::ChainStats>& chains) {
  json.begin_array();
  for (const auto& chain : chains) {
    json.begin_object();
    json.key("moves");
    json.value(chain.moves);
    json.key("accepted");
    json.value(chain.accepted);
    json.key("start_cost");
    json.value(chain.start_cost);
    json.key("best_cost");
    json.value(chain.best_cost);
    json.key("convergence");
    json.begin_array();
    for (const auto& sample : chain.convergence) {
      json.begin_object();
      json.key("iteration");
      json.value(sample.iteration);
      json.key("temperature");
      json.value(sample.temperature);
      json.key("current_cost");
      json.value(sample.current_cost);
      json.key("best_cost");
      json.value(sample.best_cost);
      json.key("accepted");
      json.value(sample.accepted);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

}  // namespace

void RunReport::write_json(std::ostream& os) const {
  JsonWriter json(os);
  json.begin_object();
  json.key("dtse_report_version");
  json.value(kRunReportVersion);

  json.key("workloads");
  json.begin_array();
  for (const auto& workload : workloads) {
    json.begin_object();
    json.key("name");
    json.value(workload.name);
    json.key("golden_passed");
    json.value(workload.golden_passed);
    json.key("detail");
    json.value(workload.detail);
    json.end_object();
  }
  json.end_array();

  json.key("points");
  json.begin_array();
  for (const auto& point : points) {
    json.begin_object();
    json.key("section");
    json.value(point.section);
    json.key("label");
    json.value(point.label);
    json.key("feasible");
    json.value(point.feasible);
    json.key("timed_out");
    json.value(point.timed_out);
    json.key("error");
    json.value(point.error);
    json.key("onchip_area_mm2");
    json.value(point.onchip_area_mm2);
    json.key("onchip_power_mw");
    json.value(point.onchip_power_mw);
    json.key("offchip_power_mw");
    json.value(point.offchip_power_mw);
    json.key("spare_cycles");
    json.value(point.spare_cycles);
    json.end_object();
  }
  json.end_array();

  json.key("pareto_front");
  json.begin_array();
  for (const auto& label : pareto_front) json.value(label);
  json.end_array();

  json.key("solver");
  json.begin_array();
  for (const auto& convergence : solver) {
    json.begin_object();
    json.key("label");
    json.value(convergence.label);
    json.key("chains");
    write_chains(json, convergence.chains);
    json.end_object();
  }
  json.end_array();

  json.key("cache");
  write_cache(json, cache);

  json.key("metrics");
  json.begin_object();
  metrics.write_sections(json);
  json.end_object();

  json.end_object();
  os << '\n';
}

}  // namespace dtse::obs
