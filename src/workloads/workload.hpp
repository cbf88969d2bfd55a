// Pluggable case studies — the workload subsystem.
//
// The paper demonstrates its methodology on one application (BTPC), but the
// methodology itself is application-agnostic: anything that can (1) run its
// kernel under a `trace::Recorder` through `InstrumentedArray` accesses,
// (2) verify a golden output of that same kernel, and (3) hand the profiled
// model to the system-level transforms can be explored.  `Workload` is that
// contract, and the registry makes workloads addressable by name so drivers
// (the `explore` example, benches, tests) sweep *any* of them — including
// several at once against one shared memory organization (see
// `core::merge_applications`).
//
// Built-ins: "btpc" (the paper's demonstrator), "hyperspec" (a
// CCSDS-123-style lossless hyperspectral compressor with a band-interleaved
// 3-D access-pattern family), "line_buffer" (a 5x5 convolution filter, the
// classic sliding-window/line-buffer decision) and "motion" (a block-matching
// motion estimator whose overlapping window reads have yet another conflict
// structure).  See docs/WORKLOADS.md for the authoring guide.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "entropy/entropy_coder.hpp"
#include "ir/application.hpp"

namespace dtse::workloads {

/// Structured verdict of a workload's golden check.  A failing report names
/// the stage that failed and what it saw, so a multi-workload driver can
/// print *why* a workload was dropped instead of a bare `false` — and keep
/// sweeping the survivors (see explore.hpp).
struct [[nodiscard]] VerifyReport {
  bool passed = true;
  /// Which stage failed (e.g. "encode", "round-trip", "reference-compare");
  /// empty on success.
  std::string stage;
  /// Human-readable detail of the mismatch; empty on success.
  std::string detail;

  [[nodiscard]] static VerifyReport pass() { return {}; }
  [[nodiscard]] static VerifyReport fail(std::string stage, std::string detail) {
    return {false, std::move(stage), std::move(detail)};
  }

  explicit operator bool() const { return passed; }

  [[nodiscard]] std::string to_string() const {
    if (passed) return "ok";
    std::string text = "failed at " + stage;
    if (!detail.empty()) text += ": " + detail;
    return text;
  }
};

/// Profiling knobs shared by every workload.  Workload-specific tunables
/// (codec traversal, cube aspect, ...) live on the concrete workload types;
/// these are the knobs a generic driver can always turn.
struct WorkloadOptions {
  /// Edge length of the profiled input (frame edge / band edge); 0 picks the
  /// workload's default profile geometry.  The *declared* design geometry is
  /// a property of the workload, not of the profiling run.
  int profile_size = 0;
  /// Seed of the synthetic input generator.
  std::uint64_t seed = 42;
  /// Entropy backend override for workloads whose kernel ends in an entropy
  /// coder (btpc, hyperspec); empty keeps the workload's constructed codec
  /// options.  The codec contracts still apply: btpc rejects kRans and
  /// hyperspec rejects kHuffman, so sweep drivers pick from each workload's
  /// supported set.  Workloads without an entropy stage ignore the field.
  std::optional<entropy::Backend> entropy_backend{};
};

/// The workload contract.  Implementations must be deterministic: for a
/// fixed `WorkloadOptions`, `profile` returns bit-identical models and
/// `verify` a stable verdict on every run (instrumentation must never change
/// the kernel's output).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Stable registry key (lowercase, no spaces); unique across the registry.
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// One-line human description, including the declared design point.
  [[nodiscard]] virtual std::string_view description() const = 0;

  /// Runs the instrumented kernel on a synthetic input and returns the
  /// pruned application model at the workload's declared design geometry.
  /// Deterministic per (options, seed); the model passes
  /// `ir::Application::validate`.
  [[nodiscard]] virtual ir::Application profile(
      const WorkloadOptions& options = {}) const = 0;

  /// Golden check: runs the same kernel end-to-end uninstrumented and
  /// verifies its output against an independent oracle (a bit-exact
  /// compression round trip, a reference implementation of the kernel).  A
  /// workload whose kernel is broken must not feed the exploration; the
  /// report says which stage broke so drivers can log it and move on.
  [[nodiscard]] virtual VerifyReport verify(
      const WorkloadOptions& options = {}) const = 0;

  /// The variant the physical-memory sweeps run on, after the workload's
  /// system-level decisions (structuring, hierarchy) are applied to the
  /// profiled model.  Defaults to the profiled model itself.
  [[nodiscard]] virtual ir::Application tuned_variant(
      const ir::Application& profiled) const {
    return profiled;
  }
};

/// Registered workload by name, or nullptr when unknown.  The returned
/// pointer stays valid for the process lifetime.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Names of every registered workload, in registration order (built-ins
/// first).
[[nodiscard]] std::vector<std::string_view> workload_names();

/// Registers an additional workload (throws support::ContractError on a
/// duplicate name).  Built-ins are registered automatically.
void register_workload(std::unique_ptr<Workload> workload);

}  // namespace dtse::workloads
