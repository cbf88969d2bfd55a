#include "motion/estimator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dtse::motion {

namespace {

constexpr double kTwoPi = 6.28318530717958648;

void check_options(const MotionOptions& options) {
  DTSE_CHECK(options.block_size >= 4 && options.block_size <= 64,
             "block size out of range");
  DTSE_CHECK(options.search_range >= 1 && options.search_range <= 64,
             "search range out of range");
  // The estimator records row-granular loop bodies; the budget distribution
  // schedules at most 64 accesses per slot and iteration, which caps the
  // search-window row length.
  DTSE_CHECK(options.block_size + 2 * options.search_range <= 64,
             "search window edge exceeds the schedulable row length");
}

/// First step size of the three-step refinement: the largest power of two
/// whose step ladder (s + s/2 + ... + 1 = 2s - 1) stays within the search
/// range, so every visited candidate is a legal full-search candidate too.
[[nodiscard]] int first_step(int search_range) {
  const auto half = static_cast<unsigned>(std::max(1, (search_range + 1) / 2));
  return static_cast<int>(std::bit_floor(half));
}

/// Legal displacement interval for a block at pixel origin `origin`: the
/// shifted block must stay inside the frame and inside ±search_range.
struct Range {
  int lo = 0;
  int hi = 0;
};

[[nodiscard]] Range candidate_range(int origin, int block, int extent, int range) {
  return {std::max(-range, -origin), std::min(range, extent - block - origin)};
}

[[nodiscard]] std::uint16_t packed_vector(const MotionVector& mv, int range) {
  // Offset-binary per axis; fits 16 bits for every supported search range.
  const auto dx = static_cast<unsigned>(mv.dx + range);
  const auto dy = static_cast<unsigned>(mv.dy + range);
  return static_cast<std::uint16_t>((dy << 8) | dx);
}

}  // namespace

FramePair make_synthetic_frame_pair(int width, int height, std::uint64_t seed) {
  DTSE_CHECK(width > 0 && height > 0, "frame geometry must be positive");
  FramePair pair;
  pair.reference = support::make_synthetic_image(
      width, height, support::SyntheticKind::kCompound, seed);

  // The current frame re-samples the reference under a global pan plus a
  // smooth sinusoidal deformation (slow relative to block size), with mild
  // per-pixel noise: displacements a block matcher can actually track.
  support::Rng rng(seed ^ 0xB10C3574A11EDULL);
  const double pan_x = rng.uniform(-4.0, 4.0);
  const double pan_y = rng.uniform(-4.0, 4.0);
  const double amp_x = rng.uniform(0.0, 2.0);
  const double amp_y = rng.uniform(0.0, 2.0);
  const double phase_x = rng.uniform(0.0, kTwoPi);
  const double phase_y = rng.uniform(0.0, kTwoPi);

  pair.current = support::Image(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double v = height > 1 ? static_cast<double>(y) / (height - 1) : 0.0;
      const double u = width > 1 ? static_cast<double>(x) / (width - 1) : 0.0;
      const int dx = static_cast<int>(
          std::lround(pan_x + amp_x * std::sin(kTwoPi * v + phase_x)));
      const int dy = static_cast<int>(
          std::lround(pan_y + amp_y * std::sin(kTwoPi * u + phase_y)));
      const int sx = std::clamp(x + dx, 0, width - 1);
      const int sy = std::clamp(y + dy, 0, height - 1);
      const int noise = static_cast<int>(rng.below(5)) - 2;
      const int value = static_cast<int>(pair.reference.at(sx, sy)) + noise;
      pair.current.at(x, y) = static_cast<std::uint16_t>(std::clamp(value, 0, 255));
    }
  }
  return pair;
}

Estimator::Estimator(int width, int height, MotionOptions options)
    : Estimator(nullptr, width, height, options, width, height) {}

Estimator::Estimator(trace::Recorder& recorder, int width, int height,
                     MotionOptions options, int declared_width, int declared_height)
    : Estimator(&recorder, width, height, options,
                declared_width ? declared_width : width,
                declared_height ? declared_height : height) {}

Estimator::Estimator(trace::Recorder* recorder, int width, int height,
                     MotionOptions options, int declared_width, int declared_height)
    : recorder_(recorder),
      options_((check_options(options), options)),
      width_(width),
      height_(height),
      blocks_x_(width / options.block_size),
      blocks_y_(height / options.block_size),
      // A non-recording InstrumentedArray takes only (name, size); the
      // recording overload wants the declared product geometry as well, so
      // the members are built through immediately-invoked lambdas on the
      // single constructor path.
      cur_frame_([&]() -> trace::InstrumentedArray<std::uint16_t> {
        const auto words = static_cast<std::size_t>(width) * height;
        const auto declared = static_cast<std::uint64_t>(declared_width) * declared_height;
        if (recorder == nullptr) return {"cur_frame", words};
        return {*recorder, "cur_frame", words, 8, 0, declared};
      }()),
      ref_frame_([&]() -> trace::InstrumentedArray<std::uint16_t> {
        const auto words = static_cast<std::size_t>(width) * height;
        const auto declared = static_cast<std::uint64_t>(declared_width) * declared_height;
        if (recorder == nullptr) return {"ref_frame", words};
        return {*recorder, "ref_frame", words, 8, 0, declared};
      }()),
      cur_block_([&]() -> trace::InstrumentedArray<std::uint16_t> {
        const auto words =
            static_cast<std::size_t>(options.block_size) * options.block_size;
        if (recorder == nullptr) return {"cur_block", words};
        return {*recorder, "cur_block", words, 8};
      }()),
      ref_window_([&]() -> trace::InstrumentedArray<std::uint16_t> {
        const int edge = options.block_size + 2 * options.search_range;
        const auto words = static_cast<std::size_t>(edge) * edge;
        if (recorder == nullptr) return {"ref_window", words};
        return {*recorder, "ref_window", words, 8};
      }()),
      sad_accum_([&]() -> trace::InstrumentedArray<std::uint32_t> {
        // Slot 0 holds the candidate SAD, slot 1 the running best; the width
        // is the overflow-free maximum of a block-sized 8-bit SAD.
        const int bits = std::bit_width(
            static_cast<unsigned>(options.block_size) *
            static_cast<unsigned>(options.block_size) * 255u);
        if (recorder == nullptr) return {"sad_accum", 2};
        return {*recorder, "sad_accum", 2, bits};
      }()),
      mv_field_([&]() -> trace::InstrumentedArray<std::uint16_t> {
        const auto blocks =
            static_cast<std::size_t>(std::max(1, width / options.block_size)) *
            static_cast<std::size_t>(std::max(1, height / options.block_size));
        const auto declared =
            static_cast<std::uint64_t>(std::max(1, declared_width / options.block_size)) *
            static_cast<std::uint64_t>(std::max(1, declared_height / options.block_size));
        if (recorder == nullptr) return {"mv_field", blocks};
        return {*recorder, "mv_field", blocks, 16, 0, declared};
      }()) {
  DTSE_CHECK(width_ >= options_.block_size && height_ >= options_.block_size,
             "frame must hold at least one block");
  if (recorder_ == nullptr) return;

  // The reference frame is the data-reuse candidate: consecutive blocks read
  // overlapping search windows (horizontal overlap within a block row), and
  // consecutive block *rows* re-read window_h - block_size rows (vertical
  // overlap — the line-buffer decision).  Window capacities scale with the
  // declared frame width so "a window-high line buffer" keeps its meaning at
  // the design point.
  const auto win_edge =
      static_cast<std::uint64_t>(options_.block_size + 2 * options_.search_range);
  const auto row = static_cast<std::uint64_t>(width_);
  const auto declared_row = static_cast<std::uint64_t>(declared_width);
  recorder_->set_reuse_windows(ref_frame_.id(),
                               {{4, 4},
                                {12, 12},
                                {win_edge, win_edge},
                                {win_edge * win_edge, win_edge * win_edge},
                                {win_edge * row, win_edge * declared_row}});
}

void Estimator::load_block(int bx, int by) {
  const int bs = options_.block_size;
  const int x0 = bx * bs;
  const int y0 = by * bs;
  // Row-granular bodies: the budget distribution schedules per iteration, so
  // one iteration must stay within a pipeline row's worth of accesses.
  for (int y = 0; y < bs; ++y) {
    trace::IterationScope scope(recorder_, "me_load_block");
    for (int x = 0; x < bs; ++x) {
      const auto pixel =
          cur_frame_.read(static_cast<std::size_t>(y0 + y) * width_ + (x0 + x));
      cur_block_.write(static_cast<std::size_t>(y) * bs + x, pixel);
    }
    // A fresh block resets the running best (the best-SAD register).
    if (y == 0) sad_accum_.write(1, ~std::uint32_t{0});
  }
}

void Estimator::load_window(int win_x, int win_y, int win_w, int win_h) {
  const int stride = options_.block_size + 2 * options_.search_range;
  for (int y = 0; y < win_h; ++y) {
    trace::IterationScope scope(recorder_, "me_load_window");
    for (int x = 0; x < win_w; ++x) {
      const auto pixel =
          ref_frame_.read(static_cast<std::size_t>(win_y + y) * width_ + (win_x + x));
      ref_window_.write(static_cast<std::size_t>(y) * stride + x, pixel);
    }
  }
}

std::uint32_t Estimator::candidate_sad(int bx, int by, int dx, int dy, int win_x,
                                       int win_y) {
  const int bs = options_.block_size;
  const int stride = bs + 2 * options_.search_range;
  const int rx = bx * bs + dx - win_x;  // candidate origin inside the window
  const int ry = by * bs + dy - win_y;
  std::uint32_t sad = 0;
  for (int y = 0; y < bs; ++y) {
    // One iteration per block row: the row's pixels feed the SAD adder tree
    // and the accumulator register absorbs the row sum (row 0 initializes).
    trace::IterationScope scope(recorder_, "me_sad_row");
    std::uint32_t row_sad = 0;
    for (int x = 0; x < bs; ++x) {
      const int cur = cur_block_.read(static_cast<std::size_t>(y) * bs + x);
      const int ref =
          ref_window_.read(static_cast<std::size_t>(ry + y) * stride + (rx + x));
      row_sad += static_cast<std::uint32_t>(std::abs(cur - ref));
    }
    sad = (y == 0 ? 0 : sad_accum_.read(0)) + row_sad;
    sad_accum_.write(0, sad);
  }
  return sad;
}

void Estimator::score_candidate(int bx, int by, int dx, int dy, int win_x, int win_y,
                                MotionVector& best) {
  const std::uint32_t sad = candidate_sad(bx, by, dx, dy, win_x, win_y);
  // The completed candidate SAD is compared against the running best;
  // strictly-less keeps the earlier candidate on ties (scan order is
  // deterministic).
  trace::IterationScope scope(recorder_, "me_select");
  if (sad_accum_.read(0) < sad_accum_.read(1)) {
    sad_accum_.write(1, sad);
    best = {dx, dy, sad};
  }
}

MotionField Estimator::estimate(const support::Image& reference,
                                const support::Image& current) {
  DTSE_CHECK(reference.width() == width_ && reference.height() == height_ &&
                 current.width() == width_ && current.height() == height_,
             "frame geometry does not match the estimator");

  // Frame arrival is not part of the estimation access profile (like the
  // BTPC frame load and the hyperspectral cube load).
  cur_frame_.raw() = current.pixels();
  ref_frame_.raw() = reference.pixels();

  MotionField field;
  field.blocks_x = blocks_x_;
  field.blocks_y = blocks_y_;
  field.vectors.resize(static_cast<std::size_t>(blocks_x_) * blocks_y_);

  const int bs = options_.block_size;
  const int range = options_.search_range;
  for (int by = 0; by < blocks_y_; ++by) {
    for (int bx = 0; bx < blocks_x_; ++bx) {
      const int x0 = bx * bs;
      const int y0 = by * bs;
      const Range rx = candidate_range(x0, bs, width_, range);
      const Range ry = candidate_range(y0, bs, height_, range);

      load_block(bx, by);
      // The window is the legal candidate hull, clipped at frame borders.
      const int win_x = x0 + rx.lo;
      const int win_y = y0 + ry.lo;
      const int win_w = bs + (rx.hi - rx.lo);
      const int win_h = bs + (ry.hi - ry.lo);
      load_window(win_x, win_y, win_w, win_h);

      // The null vector is always a legal candidate (rx.lo <= 0 <= rx.hi by
      // construction), so both strategies score at least one candidate.
      MotionVector best{0, 0, ~std::uint32_t{0}};
      if (options_.search == SearchStrategy::kFullSearch) {
        for (int dy = ry.lo; dy <= ry.hi; ++dy) {
          for (int dx = rx.lo; dx <= rx.hi; ++dx) {
            score_candidate(bx, by, dx, dy, win_x, win_y, best);
          }
        }
      } else {
        // Three-step: score the 3x3 neighbourhood of the running centre at
        // each step size, recentre on the winner, halve the step.  The
        // centre itself is only scored once (by the first step).
        int cx = 0;
        int cy = 0;
        bool first = true;
        for (int step = first_step(range); step >= 1; step /= 2) {
          const int centre_x = cx;
          const int centre_y = cy;
          for (int sy = -1; sy <= 1; ++sy) {
            for (int sx = -1; sx <= 1; ++sx) {
              if (!first && sx == 0 && sy == 0) continue;
              const int dx = centre_x + sx * step;
              const int dy = centre_y + sy * step;
              if (dx < rx.lo || dx > rx.hi || dy < ry.lo || dy > ry.hi) continue;
              score_candidate(bx, by, dx, dy, win_x, win_y, best);
            }
          }
          first = false;
          cx = best.dx;
          cy = best.dy;
        }
      }

      {
        trace::IterationScope scope(recorder_, "me_writeback");
        mv_field_.write(static_cast<std::size_t>(by) * blocks_x_ + bx,
                        packed_vector(best, range));
      }
      field.vectors[static_cast<std::size_t>(by) * blocks_x_ + bx] = best;
    }
  }
  return field;
}

MotionField reference_full_search(const support::Image& reference,
                                  const support::Image& current,
                                  const MotionOptions& options) {
  check_options(options);
  DTSE_CHECK(reference.width() == current.width() &&
                 reference.height() == current.height(),
             "frame pair geometry mismatch");
  const int bs = options.block_size;
  const int range = options.search_range;
  const int width = current.width();
  const int height = current.height();

  MotionField field;
  field.blocks_x = width / bs;
  field.blocks_y = height / bs;
  field.vectors.resize(static_cast<std::size_t>(field.blocks_x) * field.blocks_y);

  for (int by = 0; by < field.blocks_y; ++by) {
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      const int x0 = bx * bs;
      const int y0 = by * bs;
      const Range rx = candidate_range(x0, bs, width, range);
      const Range ry = candidate_range(y0, bs, height, range);
      MotionVector best{0, 0, ~std::uint32_t{0}};
      for (int dy = ry.lo; dy <= ry.hi; ++dy) {
        for (int dx = rx.lo; dx <= rx.hi; ++dx) {
          std::uint32_t sad = 0;
          for (int y = 0; y < bs; ++y) {
            for (int x = 0; x < bs; ++x) {
              sad += static_cast<std::uint32_t>(
                  std::abs(static_cast<int>(current.at(x0 + x, y0 + y)) -
                           static_cast<int>(reference.at(x0 + dx + x, y0 + dy + y))));
            }
          }
          if (sad < best.sad) best = {dx, dy, sad};
        }
      }
      field.vectors[static_cast<std::size_t>(by) * field.blocks_x + bx] = best;
    }
  }
  return field;
}

ir::Application profile_motion(const FramePair& frames, int declared_width,
                               int declared_height, const MotionOptions& options) {
  trace::Recorder recorder("motion");
  Estimator estimator(recorder, frames.reference.width(), frames.reference.height(),
                      options, declared_width, declared_height);
  (void)estimator.estimate(frames.reference, frames.current);
  // Candidate counts and window loads both scale with the block count, so
  // the block-count ratio extrapolates the profiled run to the design point.
  const int dw = declared_width ? declared_width : frames.reference.width();
  const int dh = declared_height ? declared_height : frames.reference.height();
  const double declared_blocks =
      static_cast<double>(std::max(1, dw / options.block_size)) *
      static_cast<double>(std::max(1, dh / options.block_size));
  const double profiled_blocks =
      static_cast<double>(estimator.blocks_x()) * estimator.blocks_y();
  return recorder.build(declared_blocks / profiled_blocks);
}

}  // namespace dtse::motion
