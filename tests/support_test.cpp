// Unit tests for the support module: contracts, ids, PRNG, images, tables,
// status/result values, cancellation tokens and the parallel loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include <cstdio>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>

#include "support/cancellation.hpp"
#include "support/check.hpp"
#include "support/image.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/strong_id.hpp"
#include "support/table.hpp"

namespace dtse::support {
namespace {

TEST(Check, ContractViolationThrowsContractError) {
  EXPECT_THROW(DTSE_CHECK(false, "boom"), ContractError);
  EXPECT_NO_THROW(DTSE_CHECK(true, "fine"));
}

TEST(Check, InternalViolationThrowsInternalError) {
  EXPECT_THROW(DTSE_ASSERT(false, "bug"), InternalError);
  EXPECT_NO_THROW(DTSE_ASSERT(true, "fine"));
}

TEST(Check, MessageContainsConditionAndLocation) {
  try {
    DTSE_CHECK(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

struct FooTag {};
struct BarTag {};
using FooId = StrongId<FooTag>;
using BarId = StrongId<BarTag>;

TEST(StrongId, DefaultIsInvalid) {
  FooId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, ValueRoundTrip) {
  FooId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(FooId(1), FooId(2));
  EXPECT_EQ(FooId(3), FooId(3));
  EXPECT_NE(FooId(3), FooId(4));
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<FooId, BarId>);
}

TEST(StrongId, Hashable) {
  std::set<FooId> ids{FooId(1), FooId(2), FooId(1)};
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 4.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 4.5);
  }
}

TEST(Image, ConstructionAndAccess) {
  Image img(4, 3, 9);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_EQ(img.at(0, 0), 9);
  img.at(2, 1) = 77;
  EXPECT_EQ(img.at(2, 1), 77);
}

TEST(Image, OutOfBoundsThrows) {
  Image img(4, 3);
  EXPECT_THROW((void)img.at(4, 0), ContractError);
  EXPECT_THROW((void)img.at(0, 3), ContractError);
  EXPECT_THROW((void)img.at(-1, 0), ContractError);
}

TEST(Image, ZeroDimensionThrows) {
  EXPECT_THROW(Image(0, 5), ContractError);
  EXPECT_THROW(Image(5, 0), ContractError);
}

TEST(Image, MeanAbsDiffAndPsnr) {
  Image a(2, 2, 10);
  Image b(2, 2, 10);
  EXPECT_DOUBLE_EQ(Image::mean_abs_diff(a, b), 0.0);
  EXPECT_TRUE(std::isinf(Image::psnr(a, b)));
  b.at(0, 0) = 14;
  EXPECT_DOUBLE_EQ(Image::mean_abs_diff(a, b), 1.0);
  EXPECT_LT(Image::psnr(a, b), 60.0);
  EXPECT_GT(Image::psnr(a, b), 20.0);
}

TEST(Image, MismatchedSizesThrow) {
  Image a(2, 2);
  Image b(3, 2);
  EXPECT_THROW((void)Image::mean_abs_diff(a, b), ContractError);
  EXPECT_THROW((void)Image::psnr(a, b), ContractError);
}

TEST(Image, PgmRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "dtse_test_roundtrip.pgm";
  Image img = make_synthetic_image(33, 17, SyntheticKind::kCompound, 3);
  save_pgm(img, path);
  const Image loaded = load_pgm(path);
  EXPECT_EQ(loaded, img);
  std::filesystem::remove(path);
}

TEST(Image, LoadRejectsGarbage) {
  const auto path = std::filesystem::temp_directory_path() / "dtse_test_garbage.pgm";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOTPGM", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)load_pgm(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Image, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_pgm("/nonexistent/path/foo.pgm"), std::runtime_error);
}

TEST(SyntheticImage, DeterministicForSeed) {
  const auto a = make_synthetic_image(64, 64, SyntheticKind::kCompound, 11);
  const auto b = make_synthetic_image(64, 64, SyntheticKind::kCompound, 11);
  EXPECT_EQ(a, b);
}

TEST(SyntheticImage, SeedsChangeContent) {
  const auto a = make_synthetic_image(64, 64, SyntheticKind::kCompound, 11);
  const auto b = make_synthetic_image(64, 64, SyntheticKind::kCompound, 12);
  EXPECT_NE(a, b);
}

TEST(SyntheticImage, GradientIsSmooth) {
  const auto img = make_synthetic_image(64, 64, SyntheticKind::kGradient, 1);
  for (int y = 0; y < 64; ++y) {
    for (int x = 1; x < 64; ++x) {
      EXPECT_LE(std::abs(static_cast<int>(img.at(x, y)) - img.at(x - 1, y)), 3);
    }
  }
}

TEST(SyntheticImage, EdgesHaveDiscontinuities) {
  const auto img = make_synthetic_image(128, 128, SyntheticKind::kEdges, 4);
  int big_jumps = 0;
  for (int y = 0; y < 128; ++y) {
    for (int x = 1; x < 128; ++x) {
      if (std::abs(static_cast<int>(img.at(x, y)) - img.at(x - 1, y)) > 32) ++big_jumps;
    }
  }
  EXPECT_GT(big_jumps, 10);
}

class SyntheticKindTest : public ::testing::TestWithParam<SyntheticKind> {};

TEST_P(SyntheticKindTest, AllPixelsAreEightBit) {
  const auto img = make_synthetic_image(80, 60, GetParam(), 21);
  for (const auto px : img.pixels()) EXPECT_LE(px, 255);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SyntheticKindTest,
                         ::testing::Values(SyntheticKind::kGradient,
                                           SyntheticKind::kTexture,
                                           SyntheticKind::kEdges,
                                           SyntheticKind::kCompound));

TEST(Table, FormatsHeaderAndRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1.0"});
  table.add_row({"beta", "22.5"});
  const auto text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.5"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), ContractError);
}

TEST(Table, NumFormatsDecimals) {
  EXPECT_EQ(Table::num(1.234, 1), "1.2");
  EXPECT_EQ(Table::num(1.278, 2), "1.28");
  EXPECT_EQ(Table::num(5, 0), "5");
}

TEST(Status, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, ErrorCarriesCodeMessageAndOffset) {
  const auto status = Status::error(StatusCode::kTruncated, "stream cut short", 1234);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTruncated);
  EXPECT_EQ(status.message(), "stream cut short");
  EXPECT_EQ(status.offset_bits(), 1234u);
  EXPECT_EQ(status.to_string(), "truncated @bit 1234: stream cut short");

  const auto no_offset = Status::error(StatusCode::kCorrupt, "bad value");
  EXPECT_EQ(no_offset.offset_bits(), Status::kNoOffset);
  EXPECT_EQ(no_offset.to_string(), "corrupt: bad value");

  EXPECT_THROW((void)Status::error(StatusCode::kOk, "not an error"), ContractError);
}

TEST(Result, ValueAndStatusArms) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.take(), 42);

  Result<int> bad(Status::error(StatusCode::kMalformedHeader, "nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kMalformedHeader);
  EXPECT_THROW((void)bad.value(), ContractError);
  EXPECT_THROW((void)bad.take(), ContractError);

  // Building a Result from an OK status is a caller bug.
  EXPECT_THROW((void)Result<int>(Status{}), ContractError);
}

TEST(Cancellation, FlagStaysSetOnceAnyThreadCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  std::thread([&token] { token.cancel(); }).join();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(Parallel, CollectDrainsAllIndicesAndReportsEveryFailure) {
  std::atomic<int> ran{0};
  const auto errors = parallel_for_collect(16, 4, [&](std::size_t i) {
    ran.fetch_add(1);
    if (i % 5 == 0) throw std::runtime_error("worker " + std::to_string(i));
  });
  // Every index ran despite failures, and the failures come back sorted.
  EXPECT_EQ(ran.load(), 16);
  ASSERT_EQ(errors.size(), 4u);  // indices 0, 5, 10, 15
  std::size_t prev = 0;
  for (std::size_t k = 0; k < errors.size(); ++k) {
    EXPECT_EQ(errors[k].first, k * 5);
    EXPECT_GE(errors[k].first, prev);
    prev = errors[k].first;
    EXPECT_NE(errors[k].second, nullptr);
  }
}

TEST(Parallel, ForRethrowsTheSmallestFailingIndex) {
  // Deterministic propagation: whatever the scheduling, the exception a
  // caller sees is the one a serial loop would have hit first.
  for (int trial = 0; trial < 8; ++trial) {
    try {
      parallel_for(32, 8, [&](std::size_t i) {
        if (i == 7 || i == 23) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for must propagate the failure";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 7");
    }
  }
}

}  // namespace
}  // namespace dtse::support
