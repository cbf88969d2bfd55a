#include "workloads/motion_workload.hpp"

#include <algorithm>
#include <string>

namespace dtse::workloads {

namespace {

/// Declared design point: CIF at video rate.  With 16x16 blocks and
/// a +-8 three-step search this lands around 5M accesses per frame — the
/// same league as the other declared points.  The full search fits the
/// 20 Mcycle budget only barely (~4% spare cycles vs ~76%, at ~8x the
/// on-chip power), which is why three-step is the declared strategy: the
/// cost feedback, not hard infeasibility, rules the exhaustive search out.
constexpr int kDeclaredWidth = 352;
constexpr int kDeclaredHeight = 288;
constexpr int kDefaultProfileEdge = 96;

/// The matcher recipe: 16x16 blocks, +-8 three-step search.
constexpr motion::MotionOptions kOptions{};

}  // namespace

int MotionWorkload::profile_edge(const WorkloadOptions& options) const {
  // Floor of a window edge plus one block row: a single-block frame has no
  // window overlap to profile, and the profiled row must be strictly wider
  // than the search window or the estimator's window-height line-buffer
  // reuse rung (win_edge * row words) would collapse onto the window rung
  // and silently drop out of the ladder.
  const int floor_edge =
      kOptions.block_size + 2 * kOptions.search_range + kOptions.block_size;
  return std::max(floor_edge,
                  options.profile_size > 0 ? options.profile_size : kDefaultProfileEdge);
}

ir::Application MotionWorkload::profile(const WorkloadOptions& options) const {
  const int edge = profile_edge(options);
  const auto frames = motion::make_synthetic_frame_pair(edge, edge, options.seed);
  return motion::profile_motion(frames, kDeclaredWidth, kDeclaredHeight, kOptions);
}

VerifyReport MotionWorkload::verify(const WorkloadOptions& options) const {
  const int edge = profile_edge(options);
  const auto frames = motion::make_synthetic_frame_pair(edge, edge, options.seed);

  // Full search against the independent oracle: bit-exact field equality.
  auto exhaustive = kOptions;
  exhaustive.search = motion::SearchStrategy::kFullSearch;
  motion::Estimator full(edge, edge, exhaustive);
  const auto full_field = full.estimate(frames.reference, frames.current);
  if (full_field !=
      motion::reference_full_search(frames.reference, frames.current, exhaustive)) {
    return VerifyReport::fail("reference-compare",
                              "full-search field disagrees with the reference oracle");
  }

  // The three-step search: every reported SAD must recompute exactly and
  // be no worse than the null vector (three-step always scores (0, 0)).
  const auto field =
      motion::Estimator(edge, edge, kOptions).estimate(frames.reference, frames.current);
  const int bs = kOptions.block_size;
  for (int by = 0; by < field.blocks_y; ++by) {
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      const auto& mv = field.at(bx, by);
      std::uint32_t sad = 0;
      std::uint32_t null_sad = 0;
      for (int y = 0; y < bs; ++y) {
        for (int x = 0; x < bs; ++x) {
          const int cur = frames.current.at(bx * bs + x, by * bs + y);
          sad += static_cast<std::uint32_t>(
              std::abs(cur - static_cast<int>(frames.reference.at(
                                 bx * bs + mv.dx + x, by * bs + mv.dy + y))));
          null_sad += static_cast<std::uint32_t>(
              std::abs(cur - static_cast<int>(
                                 frames.reference.at(bx * bs + x, by * bs + y))));
        }
      }
      if (mv.sad != sad || mv.sad > null_sad) {
        return VerifyReport::fail(
            "sad-recompute", "block (" + std::to_string(bx) + ", " + std::to_string(by) +
                                 ") reports SAD " + std::to_string(mv.sad) +
                                 " but recomputes to " + std::to_string(sad) +
                                 " (null-vector SAD " + std::to_string(null_sad) + ")");
      }
    }
  }
  return VerifyReport::pass();
}

}  // namespace dtse::workloads
