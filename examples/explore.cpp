// Multi-workload system exploration: renders one `workloads::explore` run
// (src/workloads/explore.hpp) over the named workloads (default: all).
// --cache-dir DIR reports to stderr only, so stdout stays byte-identical
// between cold and warm runs.  --trace-out FILE writes the Chrome trace,
// --report-out FILE the versioned run report.
//
// Usage: explore [--size N] [--cache-dir DIR] [--trace-out FILE]
//                [--report-out FILE] [workload ...]
//        explore --list
#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>

#include "core/pareto.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "support/table.hpp"
#include "workloads/explore.hpp"

namespace {

using dtse::support::Table;
namespace dw = dtse::workloads;

Table cost_table(const std::string& label_header) {
  return Table({label_header, "on-chip area [mm2]", "on-chip power [mW]",
                "off-chip power [mW]"});
}

void add_cost_row(Table& table, const std::string& label,
                  const dtse::memlib::CostSummary& summary, bool feasible) {
  table.add_row({label + (feasible ? "" : " [INFEASIBLE]"),
                 Table::num(summary.onchip_area_mm2), Table::num(summary.onchip_power_mw),
                 Table::num(summary.offchip_power_mw)});
}

/// A point that errored or timed out still gets a row: a degraded sweep
/// reports every point instead of dying on the first bad one.
void add_eval_row(Table& table, const std::string& label,
                  const dtse::core::Evaluation& eval) {
  if (!eval.error.empty()) {
    table.add_row({label + " [ERROR]", eval.error, "-", "-"});
    return;
  }
  add_cost_row(table, label + (eval.timed_out ? " [TIMED OUT]" : ""), eval.summary,
               eval.feasible);
}

void print_usage() {
  std::cout << "usage: explore [--size N] [--cache-dir DIR] [--trace-out FILE]\n"
               "               [--report-out FILE] [workload ...]\n"
               "       explore --list\n"
               "registered workloads:\n";
  for (const auto name : dw::workload_names()) {
    std::cout << "  " << name << ": " << dw::find_workload(name)->description() << '\n';
  }
}

int run(int argc, char** argv) {
  dw::ExploreConfig config;
  std::optional<dtse::persist::ProfileCache> cache;
  std::string trace_out;
  std::string report_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list" || arg == "--help") {
      print_usage();
      return 0;
    }
    const bool takes_value = arg == "--size" || arg == "--cache-dir" ||
                             arg == "--trace-out" || arg == "--report-out";
    if (takes_value && i + 1 >= argc) {
      std::cerr << arg << " requires a value\n";
      return 1;
    }
    if (arg == "--size") {
      // The whole token must be a number in range: "64x" is a typo, and an
      // overlong digit string must not wrap.
      const char* text = argv[++i];
      const char* end = text + std::strlen(text);
      int size = 0;
      const auto [ptr, ec] = std::from_chars(text, end, size);
      if (ec != std::errc{} || ptr != end || size < 32 || size > 16384) {
        std::cerr << "--size must be an integer in 32..16384 (got '" << text << "')\n";
        return 1;
      }
      config.workload_options.profile_size = size;
    } else if (arg == "--cache-dir") {
      config.profile_cache = &cache.emplace(argv[++i]);
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else if (arg == "--report-out") {
      report_out = argv[++i];
    } else if (const auto* workload = dw::find_workload(arg); workload == nullptr) {
      std::cerr << "unknown workload '" << arg << "'\n";
      print_usage();
      return 1;
    } else if (std::ranges::find(config.workloads, workload) == config.workloads.end()) {
      config.workloads.push_back(workload);
    }
  }
  if (config.workloads.empty()) {
    for (const auto name : dw::workload_names()) {
      config.workloads.push_back(dw::find_workload(name));
    }
  }

  const dtse::core::Explorer explorer{dtse::memlib::MemoryLibrary{}};
  const dtse::core::ExplorerOptions options;
  const auto result = dw::explore(explorer, config, options);

  // Populating the report is pure bookkeeping: stdout is the same with or
  // without --report-out.
  dtse::obs::RunReport report;
  for (std::size_t i = 0; i < result.workloads.size(); ++i) {
    const auto& [staged, macp, budgets, allocations] = result.workloads[i];
    const auto& name = staged.label;
    std::cout << "==== Workload '" << name << "' ====\n"
              << config.workloads[i]->description() << "\n\nGolden kernel check: "
              << staged.golden.to_string() << '\n';
    report.workloads.push_back({name, staged.golden.passed, staged.golden.to_string()});
    if (staged.failure) {
      std::cout << staged.failure->to_string() << "\n\n";
      continue;
    }
    const auto budget = options.real_time_budget_cycles;
    std::cout << staged.profiled.to_string() << "\nMemory access critical path:\n"
              << macp.to_string() << "real-time budget " << budget << " cycles -> "
              << (macp.feasible_within(static_cast<double>(budget))
                      ? "feasible\n\n"
                      : "INFEASIBLE, loop transformations required\n\n");
    auto budget_table = cost_table("Extra cycles for data-path");
    for (const auto& point : budgets) {
      add_cost_row(budget_table,
                   std::to_string(point.spare_cycles) + " (" +
                       Table::num(point.spare_percent, 1) + "%)",
                   point.eval.summary, true);
      report.add_point("cycle_budget/" + name, std::to_string(point.requested_budget),
                       point.eval);
    }
    auto alloc_table = cost_table("Version");
    for (const auto& variant : allocations) {
      add_eval_row(alloc_table, variant.label, variant.eval);
      report.add_point("alloc/" + name, variant);
    }
    std::cout << "Storage cycle budget sweep:\n" << budget_table.to_string()
              << "\nMemory allocation sweep:\n" << alloc_table.to_string() << '\n'
              << dtse::core::pareto_report(allocations) << '\n';
  }

  for (std::size_t i = 0; i < result.roster.size();) {
    const auto& workload = result.roster[i].workload;
    std::cout << "==== Entropy-coder roster for '" << workload << "' ====\n";
    auto roster_table = cost_table("Backend variant");
    for (; i < result.roster.size() && result.roster[i].workload == workload; ++i) {
      const auto& [_, staged, eval] = result.roster[i];
      if (staged.failure) {
        std::cout << staged.failure->to_string() << '\n';
        continue;
      }
      add_cost_row(roster_table, staged.label, eval.summary, eval.feasible);
      report.add_point("roster/" + workload, staged.label, eval);
    }
    std::cout << roster_table.to_string() << '\n';
  }

  if (!result.shared_labels.empty()) {
    std::cout << "==== Shared memory organization across ";
    for (std::size_t i = 0; i < result.shared_labels.size(); ++i) {
      std::cout << (i > 0 ? " + " : "") << result.shared_labels[i];
    }
    std::cout << " ====\n";
    auto shared_table = cost_table("Shared organization");
    for (const auto& variant : result.shared) {
      add_eval_row(shared_table, variant.label, variant.eval);
      report.add_point("shared", variant);
      report.add_convergence("shared/" + variant.label, variant.eval);
    }
    for (const auto index : dtse::core::pareto_front(result.shared)) {
      report.pareto_front.push_back(result.shared[index].label);
    }
    std::cout << shared_table.to_string() << "\nMulti-workload Pareto front:\n"
              << dtse::core::pareto_report(result.shared) << '\n';
  }
  if (!result.shared.empty() && !result.attribution) {
    std::cout << "No feasible shared organization at any swept memory count: "
                 "attribution skipped.\n";
  }
  if (const auto& attribution = result.attribution) {
    // The best feasible row's merged assignment re-priced per workload
    // prefix; the marginals sum bit-exactly to its triple.
    const auto& merged = attribution->merged;
    report.add_point("shared", "final", merged);
    report.add_convergence("shared/final", merged);
    auto share_table = cost_table("Workload (marginal)");
    for (const auto& share : attribution->per_workload) {
      add_cost_row(share_table, share.label, share.marginal, true);
    }
    add_cost_row(share_table, "= merged total", merged.summary, merged.feasible);
    std::cout << "Shared organization summary: " << merged.to_string()
              << "\n\nPer-workload attribution (registration order):\n"
              << share_table.to_string() << '\n';
  }

  auto& registry = dtse::obs::TelemetryRegistry::global();
  report.metrics = registry.snapshot();
  report.cache = dtse::obs::cache_stats_from(report.metrics);
  if (cache) {
    std::cerr << "profile cache (" << cache->directory()
              << "): " << report.cache.to_string() << '\n';
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot open --trace-out file '" << trace_out << "'\n";
      return 1;
    }
    registry.write_chrome_trace(out);
  }
  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "cannot open --report-out file '" << report_out << "'\n";
      return 1;
    }
    report.write_json(out);
  }
  return result.failures().empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "explore: fatal: " << e.what() << '\n';
    return 1;
  }
}
