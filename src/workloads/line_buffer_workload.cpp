#include "workloads/line_buffer_workload.hpp"

#include <algorithm>
#include <vector>

#include "hierarchy/hierarchy.hpp"
#include "support/check.hpp"
#include "support/image.hpp"
#include "trace/instrumented_array.hpp"
#include "trace/recorder.hpp"

namespace dtse::workloads {

namespace {

constexpr int kDefaultProfileEdge = 96;

constexpr int kTaps = 5;
/// Binomial 5-tap row (1 4 6 4 1); the separable outer product sums to 256,
/// so normalization is an 8-bit shift.  Coefficients fit 12 bits (max 36).
constexpr int kRow[kTaps] = {1, 4, 6, 4, 1};
constexpr int kNormShift = 8;

[[nodiscard]] int clamp_coord(int v, int limit) { return std::clamp(v, 0, limit - 1); }

/// The filter kernel over instrumented arrays.  A null `recorder` runs the
/// production path; with a recorder every frame/coeffs/out access lands in
/// the profile, declared at `declared_width` x `declared_height`.
class Filter {
 public:
  Filter(int width, int height, int declared_width, int declared_height,
         trace::Recorder* recorder = nullptr)
      : recorder_(recorder), width_(width), height_(height),
        frame_(recorder, "frame", width, height, 8, 0,
               static_cast<std::uint64_t>(declared_width) * declared_height),
        coeffs_(recorder, "coeffs", kTaps * kTaps, 12),
        out_(recorder, "out", width, height, 8, 0,
             static_cast<std::uint64_t>(declared_width) * declared_height) {
    for (int ty = 0; ty < kTaps; ++ty) {
      for (int tx = 0; tx < kTaps; ++tx) {
        coeffs_.raw()[static_cast<std::size_t>(ty) * kTaps + tx] =
            static_cast<std::uint16_t>(kRow[ty] * kRow[tx]);
      }
    }
    if (recorder == nullptr) return;
    // The frame is the data-reuse candidate of the sliding 5x5 window:
    // a register window catches the horizontal reuse, 4 lines most of the
    // vertical reuse, the full 5-line buffer reduces traffic to compulsory
    // misses.  Line-buffer capacities scale with the declared width so
    // "five lines" keep their meaning at the design point.
    const auto row = static_cast<std::uint64_t>(width);
    const auto declared_row = static_cast<std::uint64_t>(declared_width);
    std::vector<trace::Recorder::WindowSpec> windows = {
        {4, 4},
        {12, 12},
        {kTaps * kTaps, kTaps * kTaps},
        {4 * row, 4 * declared_row},
        {kTaps * row, kTaps * declared_row},
        {64 * row, 64 * declared_row},
    };
    recorder->set_reuse_windows(frame_.flat().id(), std::move(windows));
  }

  /// Filters `input` into the returned image (geometry must match).
  [[nodiscard]] support::Image run(const support::Image& input) {
    DTSE_CHECK(input.width() == width_ && input.height() == height_,
               "frame geometry does not match the filter");
    // Frame arrival is not part of the filter's access profile (like the
    // codec frame/cube loads).
    frame_.flat().raw() = input.pixels();

    for (int y = 0; y < height_; ++y) {
      for (int x = 0; x < width_; ++x) {
        trace::IterationScope scope(recorder_, "conv5x5");
        int acc = 0;
        for (int ty = 0; ty < kTaps; ++ty) {
          for (int tx = 0; tx < kTaps; ++tx) {
            const int sx = clamp_coord(x + tx - kTaps / 2, width_);
            const int sy = clamp_coord(y + ty - kTaps / 2, height_);
            acc += frame_.read(sx, sy) *
                   coeffs_.read(static_cast<std::size_t>(ty) * kTaps + tx);
          }
        }
        const int value = (acc + (1 << (kNormShift - 1))) >> kNormShift;
        out_.write(x, y, static_cast<std::uint16_t>(std::clamp(value, 0, 255)));
      }
    }

    support::Image result(width_, height_);
    result.pixels() = out_.flat().raw();
    return result;
  }

 private:
  trace::Recorder* recorder_ = nullptr;
  int width_;
  int height_;
  trace::InstrumentedArray2D<std::uint16_t> frame_;
  trace::InstrumentedArray<std::uint16_t> coeffs_;
  trace::InstrumentedArray2D<std::uint16_t> out_;
};

/// Independent oracle: coefficient-major accumulation into a wide buffer —
/// a different loop structure computing the same function.
[[nodiscard]] support::Image reference_convolution(const support::Image& input) {
  const int width = input.width();
  const int height = input.height();
  std::vector<int> acc(static_cast<std::size_t>(width) * height, 0);
  for (int ty = 0; ty < kTaps; ++ty) {
    for (int tx = 0; tx < kTaps; ++tx) {
      const int coeff = kRow[ty] * kRow[tx];
      for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
          const int sx = clamp_coord(x + tx - kTaps / 2, width);
          const int sy = clamp_coord(y + ty - kTaps / 2, height);
          acc[static_cast<std::size_t>(y) * width + x] += coeff * input.at(sx, sy);
        }
      }
    }
  }
  support::Image result(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int value =
          (acc[static_cast<std::size_t>(y) * width + x] + (1 << (kNormShift - 1))) >>
          kNormShift;
      result.at(x, y) = static_cast<std::uint16_t>(std::clamp(value, 0, 255));
    }
  }
  return result;
}

}  // namespace

int LineBufferWorkload::profile_edge(const WorkloadOptions& options) const {
  // Floor of 32: the 64-line reuse window must simulate more words than the
  // 25-word register window for the miss ladder to stay monotone.
  return std::max(32, options.profile_size > 0 ? options.profile_size
                                               : kDefaultProfileEdge);
}

ir::Application LineBufferWorkload::profile(const WorkloadOptions& options) const {
  const int edge = profile_edge(options);
  const auto input = support::make_synthetic_image(
      edge, edge, support::SyntheticKind::kCompound, options.seed);
  trace::Recorder recorder("line_buffer");
  Filter filter(edge, edge, declared_width(), declared_height(), &recorder);
  (void)filter.run(input);
  const double scale =
      static_cast<double>(declared_width()) * static_cast<double>(declared_height()) /
      (static_cast<double>(edge) * static_cast<double>(edge));
  return recorder.build(scale);
}

VerifyReport LineBufferWorkload::verify(const WorkloadOptions& options) const {
  const int edge = profile_edge(options);
  const auto input = support::make_synthetic_image(
      edge, edge, support::SyntheticKind::kCompound, options.seed);
  Filter filter(edge, edge, edge, edge);
  if (!(filter.run(input) == reference_convolution(input))) {
    return VerifyReport::fail(
        "reference-compare",
        "line-buffer filter disagrees with the coefficient-major reference convolution");
  }
  return VerifyReport::pass();
}

ir::Application LineBufferWorkload::tuned_variant(const ir::Application& profiled) const {
  const auto frame = profiled.find_group("frame");
  DTSE_CHECK(frame.has_value(), "line_buffer profile lacks the frame array");
  const auto options = hierarchy::enumerate_options(
      profiled, *frame, kTaps * kTaps,
      static_cast<std::uint64_t>(kTaps) * declared_width());
  // "Only layer 1" (the five-line buffer) wins on this access pattern;
  // index 1 of the canonical option list.
  return hierarchy::apply_hierarchy(profiled, *frame, options[1].layers);
}

}  // namespace dtse::workloads
