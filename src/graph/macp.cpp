#include "graph/macp.hpp"

#include <algorithm>
#include <sstream>

#include "graph/digraph.hpp"
#include "support/check.hpp"

namespace dtse::graph {

bool presumed_offchip(const ir::BasicGroup& group) {
  if (group.forced_location) return *group.forced_location == memlib::Location::kOffChip;
  return group.words >= kOffchipThresholdWords;
}

MacpReport analyze_macp(const ir::Application& app) {
  MacpReport report;
  double best_total = -1.0;

  for (const auto body_id : app.body_ids()) {
    const auto& body = app.body(body_id);
    const std::size_t n = body.accesses.size();

    Digraph dag(n);
    for (const auto& [from, to] : body.deps) dag.add_edge(from, to);

    std::vector<double> weight(n);
    double serial = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& access = body.accesses[i];
      // Latency weighted by expected execution count: a conditional access
      // contributes proportionally to how often it happens.
      const double latency = access_latency(app.group(access.group));
      weight[i] = latency * std::min(access.per_iteration, 1.0);
      serial += latency * access.per_iteration;
    }

    const auto path = dag.longest_path(weight);
    DTSE_CHECK(path.has_value(), "cyclic dependencies in body " + body.name);

    BodyCriticalPath bcp;
    bcp.body = body_id;
    bcp.name = body.name;
    bcp.path_cycles = *path;
    bcp.total_cycles = *path * static_cast<double>(body.iterations);
    bcp.access_cycles = serial * static_cast<double>(body.iterations);
    report.macp_cycles += bcp.total_cycles;
    report.serial_cycles += bcp.access_cycles;
    if (bcp.total_cycles > best_total) {
      best_total = bcp.total_cycles;
      report.bottleneck = body_id;
    }
    report.bodies.push_back(std::move(bcp));
  }
  return report;
}

std::string MacpReport::to_string() const {
  std::ostringstream os;
  os << "MACP: " << macp_cycles << " cycles (serial: " << serial_cycles
     << ", headroom: " << parallelism_headroom() << "x)\n";
  for (const auto& body : bodies) {
    os << "  " << body.name << ": path " << body.path_cycles << " cycles/iter, total "
       << body.total_cycles << " cycles\n";
  }
  return os.str();
}

}  // namespace dtse::graph
