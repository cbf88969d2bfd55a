// System-level exploration with accurate memory organization feedback — the
// paper's primary contribution (Section 4, Figure 1).
//
// `Explorer::evaluate` is the feedback oracle: it runs the physical memory
// management stage (storage cycle budget distribution followed by memory
// allocation and signal-to-memory assignment) on an application variant and
// returns the cost triple the designer steers by.  The `explore_*` methods
// wrap it for each decision axis of the methodology:
//
//   explore_variants           - basic group structuring etc. (Table 1)
//   explore_cycle_budgets      - storage cycle budget trade-off (Table 3)
//   explore_allocation_counts  - number of on-chip memories (Table 4)
//
// Every call is deterministic; an exploration run is a pure function of the
// profiled application model and the memory technology library.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "graph/macp.hpp"
#include "ir/application.hpp"
#include "memlib/memory_library.hpp"
#include "scbd/budget_distribution.hpp"
#include "support/cancellation.hpp"

namespace dtse::core {

struct ExplorerOptions {
  /// Cycles per frame available in total (real-time constraint: 1 Mpixel/s
  /// at 20 MHz for the 1024x1024 BTPC design point).
  std::uint64_t real_time_budget_cycles = 20'000'000;
  /// Cycles granted to memory accesses; tightening it below the real-time
  /// budget frees cycles for data-path scheduling (Section 4.5).
  std::uint64_t storage_budget_cycles = 20'000'000;
  /// Worker threads for the explore_* sweeps.  Every `evaluate` call is a
  /// pure function of (application, options), so the sweep points run
  /// concurrently and land in index order — results are bit-identical to a
  /// serial run.  0 = hardware concurrency, 1 = serial.
  unsigned parallelism = 0;
  /// Cancellation (not owned; may be null).  When it fires, in-flight solver
  /// runs stop at their best-so-far and the remaining points come back
  /// marked `timed_out`: a sweep always completes and reports every point.
  const support::CancellationToken* cancel = nullptr;
  scbd::ScbdOptions scbd;
  alloc::AllocationOptions allocation;
};

/// Complete feedback for one application variant.
struct Evaluation {
  scbd::ScbdResult scbd;
  alloc::AllocationResult allocation;
  memlib::CostSummary summary;
  std::uint64_t spare_cycles = 0;  ///< left over for data-path scheduling
  bool feasible = false;
  /// Sweep degradation report: when a sweep point threw, its message lands
  /// here (feasible stays false) instead of aborting the whole sweep; when
  /// `ExplorerOptions::cancel` fired during this point, `timed_out` is set
  /// and the costs are the solver's best-so-far.
  std::string error;
  bool timed_out = false;

  [[nodiscard]] std::string to_string() const;
};

/// A labelled variant with its feedback.
struct Variant {
  std::string label;
  ir::Application app;
  Evaluation eval;
};

/// Combines several profiled applications into one model of the
/// shared-memory scenario: one chip whose memory organization must serve
/// every workload within the same frame period (the workloads time-share the
/// datapath, their arrays coexist in the same memories).  Group and body
/// names get a "<label>." prefix so same-named arrays of different workloads
/// stay distinct; reuse profiles, forced locations and hierarchy layers are
/// preserved.  Evaluating the merged model therefore prices exactly one
/// memory organization against the union of the workloads' access patterns —
/// the "global" exploration the paper's title promises.
[[nodiscard]] ir::Application merge_applications(
    const std::vector<std::pair<std::string, const ir::Application*>>& apps,
    std::string merged_name);

/// Cost attribution of one workload inside a shared evaluation.
/// `cumulative` re-prices the merged assignment with every memory's member
/// set restricted to the registration-order prefix of workloads ending at
/// this one (same memories, same ports where conflicts remain, same
/// technology models); `marginal` is the increment over the previous prefix
/// — what this workload adds to the shared organization it joins.
struct WorkloadShare {
  std::string label;
  memlib::CostSummary cumulative;
  memlib::CostSummary marginal;
};

/// A shared evaluation with its per-workload cost attribution.
/// Reconciliation contract (property-tested): summing the `marginal` triples
/// in order — and the final `cumulative` triple — reproduces
/// `merged.summary` bit-exactly; no attribution dust is lost or invented.
struct SharedEvaluation {
  Evaluation merged;
  std::vector<WorkloadShare> per_workload;

  [[nodiscard]] std::string to_string() const;
};

/// One point of the cycle budget sweep (a Table 3 row).
struct BudgetPoint {
  std::uint64_t requested_budget = 0;
  std::uint64_t used_cycles = 0;
  std::uint64_t spare_cycles = 0;
  double spare_percent = 0.0;
  Evaluation eval;
};

class Explorer {
 public:
  explicit Explorer(memlib::MemoryLibrary library)
      : library_(std::move(library)), allocator_(library_) {}

  [[nodiscard]] const memlib::MemoryLibrary& library() const { return library_; }

  /// Physical-memory-management feedback for one variant.
  [[nodiscard]] Evaluation evaluate(const ir::Application& app,
                                    const ExplorerOptions& options = {}) const;

  /// MACP analysis (Section 4.2) — run before anything else to check the
  /// real-time constraint is reachable at all.  The access latencies are
  /// fixed, so no option changes the report.
  [[nodiscard]] graph::MacpReport analyze_critical_path(
      const ir::Application& app, const ExplorerOptions& options = {}) const;

  /// Feedback for a set of labelled variants (structuring, hierarchy, ...).
  [[nodiscard]] std::vector<Variant> explore_variants(
      std::vector<std::pair<std::string, ir::Application>> variants,
      const ExplorerOptions& options = {}) const;

  /// Cycle budget sweep: evaluates the variant at each storage budget.
  [[nodiscard]] std::vector<BudgetPoint> explore_cycle_budgets(
      const ir::Application& app, const std::vector<std::uint64_t>& budgets,
      const ExplorerOptions& options = {}) const;

  /// Memory-count sweep at a fixed budget (Table 4).
  [[nodiscard]] std::vector<Variant> explore_allocation_counts(
      const ir::Application& app, const std::vector<int>& counts,
      const ExplorerOptions& options = {}) const;

  /// One shared memory organization serving several workloads at once, and
  /// who pays for the sharing: `attribute` of `evaluate(merge_applications(
  /// apps, "shared"), options)`.
  [[nodiscard]] SharedEvaluation evaluate_shared_per_workload(
      const std::vector<std::pair<std::string, const ir::Application*>>& apps,
      const ExplorerOptions& options = {}) const;

  /// Prices an existing evaluation of `merge_applications(apps, "shared")`
  /// per workload: the *same* merged assignment is re-priced with member
  /// sets restricted to each workload prefix, yielding one `WorkloadShare`
  /// per input (in input order).  `merged_eval` must come from `evaluate`
  /// on that merged model under `options` (any memory count); it is returned
  /// untouched as `merged` — attribution never perturbs the evaluation it
  /// explains (see `SharedEvaluation` for the reconciliation contract).
  [[nodiscard]] SharedEvaluation attribute(
      const std::vector<std::pair<std::string, const ir::Application*>>& apps,
      Evaluation merged_eval, const ExplorerOptions& options = {}) const;

  /// Multi-workload allocation sweep: the memory-count trade-off of the
  /// shared organization.  The returned variants carry the merged model, so
  /// `pareto_front` over them is the multi-workload Pareto front.
  [[nodiscard]] std::vector<Variant> explore_shared_allocation_counts(
      const std::vector<std::pair<std::string, const ir::Application*>>& apps,
      const std::vector<int>& counts, const ExplorerOptions& options = {}) const;

 private:
  memlib::MemoryLibrary library_;
  alloc::MemoryAllocator allocator_;
};

}  // namespace dtse::core
