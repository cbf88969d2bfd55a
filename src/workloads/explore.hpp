// The exploration pipeline: the paper's feedback loop as one library call.
//
// `explore` stages every workload (golden check, profiling through the
// optional profile cache, tuned variant) and then the entropy-coder roster
// of the codec workloads that staged.  Each staged workload gets its MACP
// analysis, a storage cycle budget sweep (Table 3) and a memory-count sweep
// (Table 4); each roster variant one evaluation.  With two or more staged
// models it sweeps one shared memory organization over all of them,
// checkpointed when a path is given, and attributes the best row it swept.
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
  /// SWP1 checkpoint of the shared sweep's rows; empty disables it.  With a
  /// checkpoint the shared points run serially, each durable before the
  /// next starts.
  std::string checkpoint_path;
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
  /// One row per memory count.  A row restored from the checkpoint carries
  /// its label, feasibility, spare cycles and cost triple only.
  std::vector<core::Variant> shared;
  std::size_t resumed = 0;  ///< rows restored from the checkpoint
  /// The row `attribution` prices: the one `alloc::outranks` prefers.
  std::size_t best = 0;
  /// Empty when the shared sweep did not run or its best row errored.
  std::optional<core::SharedEvaluation> attribution;

  /// Every dropped model: workloads first, then roster variants.
  [[nodiscard]] std::vector<WorkloadFailure> failures() const;
};

/// Runs the pipeline.  Throws `support::ContractError` only when
/// `config.workloads` is empty.
[[nodiscard]] Exploration explore(const core::Explorer& explorer,
                                  const ExploreConfig& config,
                                  const core::ExplorerOptions& options = {});

/// The checkpointed shared sweep: evaluates `counts` on-chip memory counts
/// of `merged` serially, restoring the rows the checkpoint holds (adding
/// their number to `resumed`) and committing each cleanly completed new row
/// before the next starts.  Errored or timed-out rows are never committed.
/// The checkpoint binds by content hash to the merged model, the cycle
/// budgets and every option that prices a row at a fixed count: the solver,
/// its weights, seed, annealing budget and chain count.  The technology
/// library, latencies, conflict penalties and off-chip threshold are fixed
/// constants of the pricing recipe, so they need no hashing.  Worker counts
/// and the cancellation token never change a row and stay out.  The count
/// list is not hashed, so a resumed sweep may add counts.
[[nodiscard]] std::vector<core::Variant> checkpointed_allocation_counts(
    const core::Explorer& explorer, const ir::Application& merged,
    const std::vector<int>& counts, const core::ExplorerOptions& options,
    const std::string& checkpoint_path, std::size_t& resumed);

}  // namespace dtse::workloads
