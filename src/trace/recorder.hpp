// Access profiling infrastructure — Section 4.1.
//
// "Because this kind of profiling is so often necessary to do any
// memory-related optimizations, we have written software to automatically
// instrument the application to gather the access counts."
//
// `Recorder` is that software.  The application under study declares its
// arrays, wraps loop bodies in `IterationScope`s and performs all array
// accesses through `InstrumentedArray` (see instrumented_array.hpp).  The
// recorder aggregates, per loop body:
//   * per (array, read/write): access counts and stride-1 statistics,
//   * same-index co-access pairs between arrays (merging candidates),
//   * a dependency skeleton (reads gate subsequent writes; accesses to the
//     same array are ordered), giving the MACP analysis its DAG,
// and per array a working-set reuse simulation at configurable capacities
// (the data-reuse input of the memory hierarchy decision).
//
// The reuse simulation runs on every instrumented read, so it is one pass
// per array, not one per window.  LRU is a stack algorithm (Mattson et al.,
// IBM Sys. J. 1970): a read whose LRU stack distance — the number of
// distinct indices read since its previous read — is d hits in exactly the
// windows of capacity > d.  `ReuseSim` never computes d: it keeps, per
// window, the boundary slot below which a previous read falls out of that
// window, so a read costs O(1) plus one step per window it misses.  It keeps
// only the array's largest window worth of indices, so one lookup yields the
// exact LRU miss count of every window and memory is bounded by the largest
// window, never by the array size.
//
// All aggregation state is flat and slot-indexed: a *slot* is
// `array * 2 + kind`, so per-(array, kind) statistics live in plain vectors
// and co-access counts in a dense matrix — no tree lookups on the per-access
// or per-iteration paths.  Co-accesses are counted by chaining each
// iteration's events by (index, kind) in a small hash table, so an iteration
// costs O(events + same-key pairs), not O(events²).  `record_slot` is the
// inlined fast path used by `InstrumentedArray`, which pre-resolves its slots
// at registration time.
//
// `build()` converts everything into an ir::Application.  Profiling runs on
// a scaled-down input can be extrapolated with the `scale` parameter, which
// multiplies iteration counts and reuse misses but keeps per-iteration
// intensities — exactly how a designer profiles a 512x512 frame and reasons
// about the 1024x1024 product.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/application.hpp"
#include "support/check.hpp"

namespace dtse::trace {

using ArrayId = std::uint32_t;

/// Exact LRU simulation of one array at a ladder of window capacities, in
/// one pass per read (see the header comment).
///
/// Only the `C` most recently read distinct indices are tracked, where `C`
/// is the largest capacity: an index outside them has a stack distance of at
/// least `C` and misses every window.  Tracked indices live in one
/// open-addressed array of 12-byte `{index, slot}` entries, at least 2·C of
/// them, addressed by a Fibonacci hash (the top bits of index ·
/// 0x9E3779B97F4A7C15) with linear probing and backward-shift deletion; the
/// entry holds the *slot* of the index's latest read.  Slots are handed out
/// in read order over a space of 4·C; per slot a bitset marks the live ones
/// and a 32-bit word names the live slot's map entry, so evicting the oldest
/// index and compacting the live slots to the front (when the slots run out)
/// need no hashing.  Window `r` of capacity `c_r` is *full* once `c_r`
/// indices are tracked; its boundary is then the lowest of the `c_r` highest
/// live slots.  A read whose previous slot lies below a full window's
/// boundary misses that window, and each boundary only moves up, to the next
/// live slot, so a read costs O(1) amortized plus one next-live step per
/// window it misses or whose boundary it was.
class ReuseSim {
 public:
  /// `capacities` must be strictly increasing; empty disables the simulator.
  void init(std::vector<std::uint64_t> capacities);

  [[nodiscard]] bool enabled() const { return !capacities_.empty(); }

  /// Records one read (the per-read hot path).
  void touch(std::uint64_t index);

  /// Reads that missed the LRU window of `capacities[window]` words.
  [[nodiscard]] std::uint64_t misses(std::size_t window) const;

 private:
  void compact();
  /// Lowest live slot at or after `slot`; one must exist.
  [[nodiscard]] std::uint32_t live_from(std::uint32_t slot) const;
  /// Empties map entry `hole`, shifting later entries of its probe run back.
  void erase_entry(std::size_t hole);

  std::vector<std::uint64_t> capacities_;  ///< ascending
  /// `reads_by_rung_[m]`: reads that missed exactly the `m` smallest windows.
  std::vector<std::uint64_t> reads_by_rung_;
  /// Per window: lowest slot it still holds (0 while not full).
  std::vector<std::uint32_t> bounds_;
  std::size_t full_ = 0;  ///< windows [0, full_) are full

  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  struct [[gnu::packed, gnu::aligned(4)]] Entry {
    std::uint64_t key = kEmptyKey;  ///< tracked index; kEmptyKey = free entry
    std::uint32_t slot = 0;         ///< slot of the key's latest read
  };
  std::vector<Entry> map_;
  int map_shift_ = 63;  ///< 64 - log2(map size): the hash keeps the top bits
  std::size_t map_mask_ = 0;

  std::vector<std::uint32_t> slot_entry_;  ///< map entry of each live slot
  std::vector<std::uint64_t> live_bits_;   ///< bit s set = slot s is live
  std::uint32_t next_slot_ = 0;
  std::uint32_t live_ = 0;  ///< tracked indices, <= capacities_.back()
};

class Recorder {
 public:
  explicit Recorder(std::string application_name);

  // --- declaration ---------------------------------------------------------
  /// Declares an array.  `words`/`bitwidth` describe the *product* geometry
  /// (declare the 1M-word image even when profiling a smaller frame).
  ArrayId register_array(std::string name, std::uint64_t words, int bitwidth,
                         std::optional<memlib::Location> forced_location = std::nullopt);

  /// One reuse-simulation window.  `sim_words` is the capacity simulated on
  /// the profiled frame; `declared_words` is the capacity it corresponds to
  /// at the declared design geometry (row-buffer-like windows must shrink
  /// with the frame width to stay meaningful — 5 rows are 5 rows).
  struct WindowSpec {
    std::uint64_t sim_words = 0;
    std::uint64_t declared_words = 0;
  };

  /// Enables LRU reuse simulation for the array at the given capacities.
  /// Windows are ordered by declared words; a window that does not exceed
  /// the previous kept one in both simulated and declared words is dropped
  /// (on a narrow profiled frame a declared row can simulate fewer words
  /// than a register window), so the miss curve never inverts.
  void set_reuse_windows(ArrayId array, std::vector<WindowSpec> windows);

  // --- recording (called by InstrumentedArray / IterationScope) ------------
  /// Aggregation slot of an (array, kind) pair; the unit all flat per-body
  /// state is indexed by.
  [[nodiscard]] static constexpr std::uint32_t slot_of(ArrayId array,
                                                       ir::AccessKind kind) {
    return array * 2u + static_cast<std::uint32_t>(kind);
  }

  void begin_iteration(std::string_view body_name);
  void end_iteration();

  /// Checked general-purpose recording entry point.
  void record(ArrayId array, std::uint64_t index, ir::AccessKind kind) {
    DTSE_CHECK(array < arrays_.size(), "unknown array");
    DTSE_CHECK(current_body_ >= 0, "record() outside of an IterationScope");
    record_slot(slot_of(array, kind), index);
  }

  /// Fast path for callers that pre-resolved their slot (InstrumentedArray)
  /// and already know an iteration is active.
  void record_slot(std::uint32_t slot, std::uint64_t index) {
    DTSE_DCHECK(slot < 2 * arrays_.size(), "unknown aggregation slot");
    DTSE_DCHECK(current_body_ >= 0, "record_slot() outside of an IterationScope");
    pending_.push_back({slot, index});
    ++total_events_;
    // Reuse simulation tracks read locality only: copies into a hierarchy
    // layer serve reads, writes go to the backing store anyway.
    if ((slot & 1u) == static_cast<std::uint32_t>(ir::AccessKind::kRead)) {
      auto& reuse = arrays_[slot >> 1].reuse;
      if (reuse.enabled()) reuse.touch(index);
    }
  }

  [[nodiscard]] bool in_iteration() const { return current_body_ >= 0; }

  // --- extraction -----------------------------------------------------------
  /// Builds the pruned application model.  `scale` extrapolates the profiled
  /// frame to a larger one (iteration counts and reuse misses multiply).
  [[nodiscard]] ir::Application build(double scale = 1.0) const;

  [[nodiscard]] std::uint64_t total_events() const { return total_events_; }

 private:
  struct ArrayInfo {
    std::string name;
    std::uint64_t words = 0;
    int bitwidth = 0;
    std::optional<memlib::Location> forced_location;
    std::vector<WindowSpec> windows;  ///< kept reuse windows, ascending
    ReuseSim reuse;                   ///< simulates `windows[i].sim_words`
  };

  /// Aggregated per-slot statistics within one loop body.
  struct AccessAgg {
    std::uint64_t count = 0;
    std::uint64_t stride1 = 0;      ///< successor at distance exactly 1
    std::uint64_t dense = 0;        ///< successor at distance 1..3
    std::uint64_t dense_delta = 0;  ///< sum of those distances
    std::uint64_t last_index = ~std::uint64_t{0};  ///< ~0: none yet
  };

  struct PendingEvent {
    std::uint32_t slot;
    std::uint64_t index;
  };

  struct BodyInfo {
    std::string name;
    std::uint64_t iterations = 0;
    /// Slot-indexed aggregation, sized 2 * arrays (grown on demand).
    std::vector<AccessAgg> accesses;
    /// Dense same-index co-access counts: kind * n * n + lo * n + hi with
    /// lo < hi, where n is `co_arrays` (the array count the matrix was last
    /// sized for; regrown and remapped when arrays are registered later).
    std::vector<std::uint64_t> co_access;
    std::size_t co_arrays = 0;
    /// Dependency skeleton over slots, from the first iteration.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> deps;
    bool deps_captured = false;
  };

  void aggregate_iteration();
  static void grow_body_state(BodyInfo& body, std::size_t arrays);

  std::string app_name_;
  std::vector<ArrayInfo> arrays_;
  std::vector<BodyInfo> bodies_;
  long current_body_ = -1;
  std::vector<PendingEvent> pending_;
  /// Co-access scratch, reused across iterations: hash table of the latest
  /// pending event per (index, kind) key, each event's previous one, and the
  /// buckets the current iteration claimed.
  std::vector<std::uint32_t> co_heads_;
  std::vector<std::uint32_t> co_chain_;
  std::vector<std::size_t> co_claimed_;
  std::uint64_t total_events_ = 0;
};

/// RAII marker for one iteration of a named loop body.  Tolerant of a null
/// recorder: kernels that serve both production and profiling runs guard
/// each loop-body iteration with this scope and pay one predictable branch
/// when no recorder is attached.
class IterationScope {
 public:
  IterationScope(Recorder* recorder, std::string_view body_name)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin_iteration(body_name);
  }
  ~IterationScope() {
    if (recorder_ != nullptr) recorder_->end_iteration();
  }

  IterationScope(const IterationScope&) = delete;
  IterationScope& operator=(const IterationScope&) = delete;

 private:
  Recorder* recorder_;
};

}  // namespace dtse::trace
