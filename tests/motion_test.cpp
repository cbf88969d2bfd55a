// Tests for the block-matching motion estimation subsystem: the golden
// full-search oracle, three-step optimality bounds, instrumentation
// transparency and the profiled model's shape.
#include <gtest/gtest.h>

#include <cstdlib>

#include "motion/estimator.hpp"
#include "support/check.hpp"
#include "trace/recorder.hpp"

namespace dtse::motion {
namespace {

constexpr int kEdge = 64;

MotionOptions full_search_options() {
  MotionOptions options;
  options.search = SearchStrategy::kFullSearch;
  return options;
}

/// SAD recomputed straight off the images (no estimator involved).
std::uint32_t image_sad(const support::Image& reference, const support::Image& current,
                        int x0, int y0, int dx, int dy, int bs) {
  std::uint32_t sad = 0;
  for (int y = 0; y < bs; ++y) {
    for (int x = 0; x < bs; ++x) {
      sad += static_cast<std::uint32_t>(
          std::abs(static_cast<int>(current.at(x0 + x, y0 + y)) -
                   static_cast<int>(reference.at(x0 + dx + x, y0 + dy + y))));
    }
  }
  return sad;
}

TEST(FramePair, DeterministicAndCorrelated) {
  const auto a = make_synthetic_frame_pair(kEdge, kEdge, 7);
  const auto b = make_synthetic_frame_pair(kEdge, kEdge, 7);
  EXPECT_EQ(a.reference, b.reference);
  EXPECT_EQ(a.current, b.current);

  const auto other = make_synthetic_frame_pair(kEdge, kEdge, 8);
  EXPECT_NE(a.current, other.current);

  // The pair must be trackable: matching against the reference must beat a
  // flat mid-gray frame for most blocks (otherwise block matching has
  // nothing to find and the workload profiles noise).
  const auto field = reference_full_search(a.reference, a.current, full_search_options());
  const support::Image flat(kEdge, kEdge, 128);
  const auto flat_field = reference_full_search(flat, a.current, full_search_options());
  std::uint64_t tracked = 0, total = 0;
  for (std::size_t i = 0; i < field.vectors.size(); ++i) {
    tracked += field.vectors[i].sad < flat_field.vectors[i].sad ? 1 : 0;
    ++total;
  }
  EXPECT_GT(tracked * 2, total);
}

TEST(Estimator, FullSearchMatchesOracleBitExactly) {
  const auto frames = make_synthetic_frame_pair(kEdge, kEdge, 42);
  Estimator estimator(kEdge, kEdge, full_search_options());
  const auto field = estimator.estimate(frames.reference, frames.current);
  const auto oracle =
      reference_full_search(frames.reference, frames.current, full_search_options());
  EXPECT_EQ(field, oracle);
}

TEST(Estimator, FullSearchIsOptimalPerBlock) {
  const auto frames = make_synthetic_frame_pair(kEdge, kEdge, 3);
  const auto options = full_search_options();
  Estimator estimator(kEdge, kEdge, options);
  const auto field = estimator.estimate(frames.reference, frames.current);
  const int bs = options.block_size;
  const int range = options.search_range;
  for (int by = 0; by < field.blocks_y; ++by) {
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      const auto& mv = field.at(bx, by);
      EXPECT_EQ(mv.sad, image_sad(frames.reference, frames.current, bx * bs, by * bs,
                                  mv.dx, mv.dy, bs));
      for (int dy = -range; dy <= range; ++dy) {
        for (int dx = -range; dx <= range; ++dx) {
          if (bx * bs + dx < 0 || by * bs + dy < 0 ||
              bx * bs + dx + bs > kEdge || by * bs + dy + bs > kEdge) {
            continue;
          }
          EXPECT_LE(mv.sad, image_sad(frames.reference, frames.current, bx * bs,
                                      by * bs, dx, dy, bs));
        }
      }
    }
  }
}

TEST(Estimator, ThreeStepSadsAreExactAndBeatTheNullVector) {
  const auto frames = make_synthetic_frame_pair(kEdge, kEdge, 42);
  Estimator estimator(kEdge, kEdge, {});  // default: three-step
  const auto field = estimator.estimate(frames.reference, frames.current);
  const int bs = estimator.options().block_size;
  for (int by = 0; by < field.blocks_y; ++by) {
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      const auto& mv = field.at(bx, by);
      EXPECT_EQ(mv.sad, image_sad(frames.reference, frames.current, bx * bs, by * bs,
                                  mv.dx, mv.dy, bs));
      EXPECT_LE(mv.sad, image_sad(frames.reference, frames.current, bx * bs, by * bs,
                                  0, 0, bs));
    }
  }
}

TEST(Estimator, InstrumentationDoesNotChangeTheField) {
  const auto frames = make_synthetic_frame_pair(kEdge, kEdge, 11);
  for (const auto strategy : {SearchStrategy::kFullSearch, SearchStrategy::kThreeStep}) {
    MotionOptions options;
    options.search = strategy;
    Estimator plain(kEdge, kEdge, options);
    trace::Recorder recorder("motion");
    Estimator instrumented(kEdge, kEdge, options, 0, 0, &recorder);
    EXPECT_EQ(plain.estimate(frames.reference, frames.current),
              instrumented.estimate(frames.reference, frames.current));
    EXPECT_GT(recorder.total_events(), 0u);
  }
}

TEST(Estimator, RejectsBadGeometry) {
  MotionOptions huge_window;
  huge_window.block_size = 32;
  huge_window.search_range = 32;  // window edge 96 > schedulable row length
  EXPECT_THROW((Estimator{kEdge, kEdge, huge_window}), support::ContractError);

  MotionOptions options;
  EXPECT_THROW((Estimator{8, 8, options}), support::ContractError);  // < one block

  Estimator estimator(kEdge, kEdge, options);
  const auto frames = make_synthetic_frame_pair(kEdge / 2, kEdge / 2, 1);
  EXPECT_THROW((void)estimator.estimate(frames.reference, frames.current),
               support::ContractError);
}

TEST(Profile, ModelShapeAndDeterminism) {
  const auto frames = make_synthetic_frame_pair(kEdge, kEdge, 42);
  const auto app = profile_motion(frames, 352, 288);
  EXPECT_NO_THROW(app.validate());

  // The six basic groups of the estimation engine.
  for (const auto* name :
       {"cur_frame", "ref_frame", "cur_block", "ref_window", "sad_accum", "mv_field"}) {
    EXPECT_TRUE(app.find_group(name).has_value()) << name;
  }

  // Declared geometry: frames at CIF, the MV field one word per block.
  EXPECT_EQ(app.group(*app.find_group("cur_frame")).words, 352u * 288u);
  EXPECT_EQ(app.group(*app.find_group("mv_field")).words, (352u / 16) * (288u / 16));

  // The reference frame carries the reuse ladder (the window/line-buffer
  // hierarchy decision needs it).
  const auto* reuse = app.reuse_profile(*app.find_group("ref_frame"));
  ASSERT_NE(reuse, nullptr);
  EXPECT_GE(reuse->windows.size(), 4u);
  for (std::size_t i = 1; i < reuse->windows.size(); ++i) {
    EXPECT_GT(reuse->windows[i].window_words, reuse->windows[i - 1].window_words);
    EXPECT_LE(reuse->windows[i].misses_per_frame,
              reuse->windows[i - 1].misses_per_frame + 1e-9);
  }

  // Extrapolation: iteration counts scale by the block-count ratio.
  const double blocks_ratio =
      (352.0 / 16) * (288.0 / 16) / ((kEdge / 16.0) * (kEdge / 16.0));
  const auto small = profile_motion(frames, 0, 0);
  EXPECT_NEAR(app.total_accesses_per_frame(),
              small.total_accesses_per_frame() * blocks_ratio,
              1e-6 * app.total_accesses_per_frame());

  const auto again = profile_motion(frames, 352, 288);
  EXPECT_EQ(app.to_string(), again.to_string());
}

}  // namespace
}  // namespace dtse::motion
