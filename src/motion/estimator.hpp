// Block-matching motion estimation — the fourth workload family.
//
// Video coders spend most of their memory traffic finding, for every block of
// the current frame, the best-matching block in a search window of the
// reference frame (sum of absolute differences, SAD).  The access pattern is
// unlike anything the other workloads exercise: every candidate motion vector
// re-reads the *same* current block and a heavily *overlapping* part of the
// reference window — many parallel readers over one small buffer, the
// conflict structure of a multi-source readout rather than a streaming codec.
//
// Two search strategies are implemented:
//   * full search  — exhaustively scores every candidate in ±search_range;
//     the quality reference, but its access volume scales with the window
//     *area*: at CIF geometry it devours nearly the whole real-time cycle
//     budget and an order of magnitude more SAD power,
//   * three-step   — the classic logarithmic refinement (9 candidates per
//     step, halving step size); ~10x fewer candidates, the design point a
//     real-time implementation actually ships.
//
// Like the codecs, the kernel performs all background-memory accesses through
// `trace::InstrumentedArray`: the current/reference frames (off-chip sized),
// an on-chip current-block buffer, the reference search-window buffer (the
// "line buffer" of motion estimation), the SAD accumulator registers and the
// motion-vector field.  Constructed with a `trace::Recorder`, one estimation
// run produces the profiled application model as a side effect.
//
// Determinism contract: estimation is a pure function of (frames, options) —
// ties between equal-SAD candidates break toward the first candidate in scan
// order, so instrumented and uninstrumented runs produce identical fields.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/application.hpp"
#include "support/image.hpp"
#include "trace/instrumented_array.hpp"
#include "trace/recorder.hpp"

namespace dtse::motion {

/// Candidate enumeration strategy of the block matcher.
enum class SearchStrategy : std::uint8_t {
  kFullSearch,  ///< every candidate in the window — exhaustive, optimal SAD
  kThreeStep,   ///< logarithmic 9-candidate refinement — the real-time choice
};

/// Block-matcher knobs.  All geometry is validated on construction.
struct MotionOptions {
  int block_size = 16;    ///< edge of the square blocks (>= 4)
  int search_range = 8;   ///< maximum displacement per axis, in pixels (>= 1)
  SearchStrategy search = SearchStrategy::kThreeStep;
};

/// One block's winning displacement and its exact SAD.
struct MotionVector {
  int dx = 0;
  int dy = 0;
  std::uint32_t sad = 0;

  friend bool operator==(const MotionVector&, const MotionVector&) = default;
};

/// The per-block result of one estimation run (row-major block order).
struct MotionField {
  int blocks_x = 0;
  int blocks_y = 0;
  std::vector<MotionVector> vectors;

  [[nodiscard]] const MotionVector& at(int bx, int by) const {
    return vectors[static_cast<std::size_t>(by) * blocks_x + bx];
  }

  friend bool operator==(const MotionField&, const MotionField&) = default;
};

/// A reference/current frame pair with synthetic but video-like correlation.
struct FramePair {
  support::Image reference;
  support::Image current;
};

/// Deterministically generates a frame pair: a synthetic reference frame plus
/// a current frame derived from it by a global pan, a smooth local
/// deformation and mild sensor noise — the statistics block matching exploits.
[[nodiscard]] FramePair make_synthetic_frame_pair(int width, int height,
                                                  std::uint64_t seed);

/// The block-matching engine.  One instance serves one frame geometry.
class Estimator {
 public:
  /// Estimator for `width` x `height` frames.  With a non-null `recorder`
  /// it profiles what it estimates: `declared_width`/`declared_height` give
  /// the product geometry entered into the application model (profile a
  /// small frame, declare the real-time design point); 0 means same as
  /// profiled.
  Estimator(int width, int height, MotionOptions options = {}, int declared_width = 0,
            int declared_height = 0, trace::Recorder* recorder = nullptr);

  /// Runs block matching of `current` against `reference` (both must match
  /// the construction geometry).  Deterministic; instrumentation does not
  /// change the result.
  [[nodiscard]] MotionField estimate(const support::Image& reference,
                                     const support::Image& current);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int blocks_x() const { return blocks_x_; }
  [[nodiscard]] int blocks_y() const { return blocks_y_; }
  [[nodiscard]] const MotionOptions& options() const { return options_; }

 private:
  void load_block(int bx, int by);
  void load_window(int win_x, int win_y, int win_w, int win_h);
  /// SAD of the current block against the window at displacement (dx, dy)
  /// from the block origin; the window was loaded at (win_x, win_y).
  [[nodiscard]] std::uint32_t candidate_sad(int bx, int by, int dx, int dy,
                                            int win_x, int win_y);
  /// Scores one candidate against the running best (strictly-less keeps the
  /// earlier candidate on ties — the determinism contract).
  void score_candidate(int bx, int by, int dx, int dy, int win_x, int win_y,
                       MotionVector& best);

  trace::Recorder* recorder_ = nullptr;
  MotionOptions options_;
  int width_ = 0;
  int height_ = 0;
  int blocks_x_ = 0;
  int blocks_y_ = 0;
  int declared_width_ = 0;  ///< declared product geometry (a 0 argument = as profiled)
  int declared_height_ = 0;

  // The workload's basic groups.
  /// Current and reference frames (off-chip sized).
  trace::InstrumentedArray<std::uint16_t> cur_frame_;
  trace::InstrumentedArray<std::uint16_t> ref_frame_;
  trace::InstrumentedArray<std::uint16_t> cur_block_;   ///< on-chip current-block buffer
  trace::InstrumentedArray<std::uint16_t> ref_window_;  ///< on-chip search-window buffer
  trace::InstrumentedArray<std::uint32_t> sad_accum_;   ///< candidate/best SAD registers
  trace::InstrumentedArray<std::uint16_t> mv_field_;    ///< packed winning vectors
};

/// Independent full-search oracle: scores every candidate straight off the
/// images, with none of the estimator's buffering.  The golden check compares
/// `Estimator` (full-search mode) against this field bit for bit.
[[nodiscard]] MotionField reference_full_search(const support::Image& reference,
                                                const support::Image& current,
                                                const MotionOptions& options);

/// Convenience: profile one estimation run of `frames` and return the pruned
/// application model, declared at `declared_width` x `declared_height` and
/// extrapolated by the block-count ratio.
[[nodiscard]] ir::Application profile_motion(const FramePair& frames, int declared_width,
                                             int declared_height,
                                             const MotionOptions& options = {});

}  // namespace dtse::motion
