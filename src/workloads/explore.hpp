// The exploration pipeline: the paper's feedback loop as one library call.
//
// `explore` stages every workload (golden check, profiling through the
// optional profile cache, tuned variant) and then the entropy-coder roster
// of the codec workloads that staged.  Each staged workload gets its MACP
// analysis, a storage cycle budget sweep (Table 3) and a memory-count sweep
// (Table 4); each roster variant one evaluation.  With two or more staged
// models it sweeps one shared memory organization over all of them and
// attributes the best feasible row it swept.
// A failing staging step becomes a `WorkloadFailure`; the run goes on
// without that model.  Every evaluation prices against one fixed recipe
// (the placement rule of `graph/macp.hpp`, the scheduler's penalties and
// the `memlib` technology constants); only the cycle budgets, memory counts
// and solver options vary.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "persist/profile_cache.hpp"
#include "workloads/workload.hpp"

namespace dtse::workloads {

/// Why one model was dropped from the exploration.
struct WorkloadFailure {
  std::string name;
  /// "lookup" (null workload), "verify", "profile", "tuned_variant", or
  /// "evaluate" (roster variants).
  std::string stage;
  /// The VerifyReport text or the exception message.
  std::string detail;

  [[nodiscard]] std::string to_string() const {
    return name + " dropped at " + stage + ": " + detail;
  }
};

struct ExploreConfig {
  /// Run and merge order; must not be empty.  Null entries are reported.
  std::vector<const Workload*> workloads;
  WorkloadOptions workload_options;
  persist::ProfileCache* profile_cache = nullptr;  ///< may be null
};

/// One staged model: a workload or an entropy-roster variant of one.
struct StagedModel {
  std::string label;  ///< "btpc", "btpc[rice]", or "<null #i>"
  /// The golden verdict; reads as failed when verify threw or never ran.
  VerifyReport golden = VerifyReport::fail("verify", "did not complete");
  /// Set when a step dropped the model; later fields then stay default.
  std::optional<WorkloadFailure> failure;
  ir::Application profiled{"unprofiled"};
  ir::Application tuned{"untuned"};
};

struct WorkloadExploration {
  StagedModel staged;
  graph::MacpReport macp;
  std::vector<core::BudgetPoint> budgets;
  std::vector<core::Variant> allocations;
};

struct RosterExploration {
  std::string workload;  ///< whose backend was swapped
  StagedModel staged;
  core::Evaluation eval;
};

struct Exploration {
  std::vector<WorkloadExploration> workloads;  ///< configuration order
  std::vector<RosterExploration> roster;       ///< grouped by workload
  /// Merge order of the shared sweep; empty when it did not run.
  std::vector<std::string> shared_labels;
  /// One row per memory count.
  std::vector<core::Variant> shared;
  /// The row `attribution` prices: the feasible one `alloc::outranks`
  /// prefers.  Unset when the sweep did not run or no row is feasible.
  std::optional<std::size_t> best;
  /// Set exactly when `best` is.
  std::optional<core::SharedEvaluation> attribution;

  /// Every dropped model: workloads first, then roster variants.
  [[nodiscard]] std::vector<WorkloadFailure> failures() const;
};

/// Runs the pipeline.  Throws `support::ContractError` only when
/// `config.workloads` is empty.
[[nodiscard]] Exploration explore(const core::Explorer& explorer,
                                  const ExploreConfig& config,
                                  const core::ExplorerOptions& options = {});

}  // namespace dtse::workloads
