// Tests for the CCSDS-123-style hyperspectral codec: bit-exact round trips
// (including odd cube geometries and high-entropy escape-path streams),
// deterministic encoding, and the instrumented profile.
#include <gtest/gtest.h>

#include <cstdlib>

#include "hyperspec/codec.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dtse::hyperspec {
namespace {

TEST(HyperspecCodec, RoundTripIsBitExactOnOddDims) {
  // The ISSUE's acceptance geometry: 7 bands of 33x17.
  const CubeShape shape{7, 33, 17};
  for (const std::uint64_t seed : {1ull, 42ull, 1234567ull}) {
    const auto cube = make_synthetic_cube(shape, seed);
    Encoder encoder(shape);
    const auto encoded = encoder.encode(cube, {});
    EXPECT_EQ(Decoder{}.decode(encoded), cube) << "seed " << seed;
    EXPECT_LT(encoded.bits_per_sample(), 12.0) << "smooth cube must compress";
  }
}

TEST(HyperspecCodec, RoundTripOnDegenerateShapes) {
  for (const auto& shape :
       {CubeShape{1, 1, 1}, CubeShape{1, 1, 9}, CubeShape{5, 9, 1}, CubeShape{2, 2, 2}}) {
    const auto cube = make_synthetic_cube(shape, 99);
    Encoder encoder(shape);
    EXPECT_EQ(Decoder{}.decode(encoder.encode(cube, {})), cube)
        << shape.bands << "x" << shape.height << "x" << shape.width;
  }
}

TEST(HyperspecCodec, NoiseCubeExercisesEscapesAndStillRoundTrips) {
  const CubeShape shape{3, 31, 29};
  Cube noisy(shape);
  support::Rng rng(7);
  for (auto& sample : noisy.samples()) {
    sample = static_cast<std::uint16_t>(rng.below(4096));
  }
  Encoder encoder(shape);
  const auto encoded = encoder.encode(noisy, {});
  EXPECT_EQ(Decoder{}.decode(encoded), noisy);
  // Uniform noise is incompressible: the escape path must be in heavy use
  // (bits/sample well above the 12-bit entropy is fine, above raw+2 is not).
  EXPECT_GT(encoded.bits_per_sample(), 12.0);
  EXPECT_LT(encoded.bits_per_sample(), 14.5);
}

TEST(HyperspecCodec, RoundTripAtOtherDynamicRanges) {
  for (const int bits : {8, 10, 16}) {
    HsCodecOptions options;
    options.dynamic_range_bits = bits;
    const CubeShape shape{4, 19, 23};
    const auto cube = make_synthetic_cube(shape, 5, bits);
    Encoder encoder(shape);
    EXPECT_EQ(Decoder{}.decode(encoder.encode(cube, options)), cube) << bits << " bits";
  }
}

TEST(HyperspecCodec, EncodingIsDeterministic) {
  const CubeShape shape{5, 24, 24};
  const auto cube = make_synthetic_cube(shape, 42);
  Encoder a(shape);
  Encoder b(shape);
  const auto ea = a.encode(cube, {});
  const auto eb = b.encode(cube, {});
  EXPECT_EQ(ea.stream, eb.stream);
}

TEST(HyperspecCodec, InstrumentedEncodeMatchesPlainStream) {
  // Profiling must observe the kernel, never change it: an encode through
  // the instrumented arrays emits the plain encoder's stream word for word,
  // for every backend and on a geometry with odd edges.
  const CubeShape shape{5, 19, 23};
  const auto cube = make_synthetic_cube(shape, 11);
  for (const auto backend :
       {entropy::Backend::kRice, entropy::Backend::kExpGolomb, entropy::Backend::kRans}) {
    HsCodecOptions options;
    options.backend = backend;
    Encoder plain(shape);
    trace::Recorder recorder("hyperspec");
    Encoder instrumented(recorder, shape, {}, options);
    EXPECT_EQ(instrumented.encode(cube, options).stream,
              plain.encode(cube, options).stream)
        << entropy::to_string(backend);
  }
}

TEST(HyperspecCodec, SampleExceedingDynamicRangeIsRejected) {
  const CubeShape shape{1, 2, 2};
  Cube cube(shape);
  cube.at(0, 1, 1) = 1u << 12;  // beyond the 12-bit default range
  Encoder encoder(shape);
  EXPECT_THROW((void)encoder.encode(cube, {}), support::ContractError);
}

TEST(HyperspecCodec, SerializeRoundTripsThroughTheContainer) {
  const CubeShape shape{4, 12, 12};
  const auto cube = make_synthetic_cube(shape, 7);
  Encoder encoder(shape);
  HsCodecOptions options;
  options.unary_limit = 8;
  const auto encoded = encoder.encode(cube, options);
  auto restored = try_deserialize(serialize(encoded));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().shape.bands, shape.bands);
  EXPECT_EQ(restored.value().shape.height, shape.height);
  EXPECT_EQ(restored.value().shape.width, shape.width);
  EXPECT_EQ(restored.value().unary_limit, 8);
  EXPECT_EQ(restored.value().stream, encoded.stream);
  Decoder decoder;
  auto decoded = decoder.try_decode(restored.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cube);
}

TEST(HyperspecCodec, TryDeserializeReportsStatusInsteadOfThrowing) {
  EXPECT_EQ(try_deserialize({}).status().code(), support::StatusCode::kTruncated);

  std::vector<std::uint8_t> bad_magic(18, 0);
  EXPECT_EQ(try_deserialize(bad_magic).status().code(),
            support::StatusCode::kMalformedHeader);

  const CubeShape shape{2, 6, 6};
  Encoder encoder(shape);
  auto bytes = serialize(encoder.encode(make_synthetic_cube(shape, 3), {}));
  bytes.pop_back();  // word count no longer matches the bytes present
  EXPECT_EQ(try_deserialize(bytes).status().code(), support::StatusCode::kTruncated);
}

TEST(HyperspecCodec, TryDecodeRejectsHostileHeaders) {
  const auto status_of = [](const EncodedCube& encoded) {
    Decoder decoder;
    auto result = decoder.try_decode(encoded);
    EXPECT_FALSE(result.ok());
    return result.status();
  };

  EncodedCube bad_shape;  // default CubeShape is invalid
  EXPECT_EQ(status_of(bad_shape).code(), support::StatusCode::kMalformedHeader);

  EncodedCube huge;
  huge.shape = CubeShape{kMaxDecodeBands, kMaxDecodeEdge, kMaxDecodeEdge};
  EXPECT_EQ(status_of(huge).code(), support::StatusCode::kResourceLimit);

  EncodedCube bad_unary;
  bad_unary.shape = CubeShape{1, 4, 4};
  bad_unary.unary_limit = 0;
  bad_unary.stream.assign(16, 0);
  EXPECT_EQ(status_of(bad_unary).code(), support::StatusCode::kMalformedHeader);

  EncodedCube starved;  // 64 samples need >= 64 bits; offer 16
  starved.shape = CubeShape{4, 4, 4};
  starved.stream.assign(1, 0);
  EXPECT_EQ(status_of(starved).code(), support::StatusCode::kTruncated);
}

TEST(HyperspecCodec, TruncatedStreamIsACleanErrorNeverAThrow) {
  const CubeShape shape{3, 10, 10};
  Encoder encoder(shape);
  const auto encoded = encoder.encode(make_synthetic_cube(shape, 11), {});
  Decoder decoder;
  for (std::size_t words = 0; words < encoded.stream.size(); ++words) {
    EncodedCube cut = encoded;
    cut.stream.resize(words);
    auto result = decoder.try_decode(cut);
    if (result.ok()) {
      EXPECT_EQ(result.value().shape(), shape);  // bounded, well-shaped output
    } else {
      EXPECT_NE(result.status().code(), support::StatusCode::kOk);
    }
  }
}

TEST(HyperspecCodec, SyntheticCubeIsBandCorrelated) {
  const CubeShape shape{6, 32, 32};
  const auto cube = make_synthetic_cube(shape, 42);
  // Adjacent bands must be close enough for the previous-band predictor to
  // pay off: mean absolute inter-band delta far below the dynamic range.
  double total = 0.0;
  for (int z = 1; z < shape.bands; ++z) {
    for (int y = 0; y < shape.height; ++y) {
      for (int x = 0; x < shape.width; ++x) {
        total += std::abs(static_cast<int>(cube.at(z, y, x)) -
                          static_cast<int>(cube.at(z - 1, y, x)));
      }
    }
  }
  const double mean =
      total / (static_cast<double>(shape.bands - 1) * shape.plane_samples());
  EXPECT_LT(mean, 256.0);
}

TEST(HyperspecProfile, ContainsTheWorkloadArrays) {
  const auto cube = make_synthetic_cube({3, 24, 24}, 42);
  const auto app = profile_hyperspec(cube, {12, 256, 256});
  for (const auto* name :
       {"cube", "residual", "rice_accum", "rice_count", "bit_accum", "out_buf"}) {
    EXPECT_TRUE(app.find_group(name).has_value()) << "missing array " << name;
  }
  EXPECT_EQ(app.body_count(), 3u);  // hs_band_setup, hs_predict, hs_encode
  // The declared design geometry, not the profiled one, lands in the model.
  EXPECT_EQ(app.group(*app.find_group("cube")).words, 12u * 256u * 256u);
  EXPECT_EQ(app.group(*app.find_group("rice_accum")).words, 12u);
  EXPECT_NO_THROW(app.validate());
}

TEST(HyperspecProfile, BitwidthsFollowTheCodecOptions) {
  HsCodecOptions wide;
  wide.dynamic_range_bits = 16;
  const auto cube = make_synthetic_cube({3, 16, 16}, 42, 16);
  const auto app = profile_hyperspec(cube, {}, wide);
  EXPECT_EQ(app.group(*app.find_group("cube")).bitwidth, 16);
  EXPECT_EQ(app.group(*app.find_group("residual")).bitwidth, 16);
  // Rice state is sized for its overflow-free maxima: accumulator at
  // D + log2(rescale), counter at log2(rescale) + 1.
  EXPECT_EQ(app.group(*app.find_group("rice_accum")).bitwidth, 16 + 6);
  EXPECT_EQ(app.group(*app.find_group("rice_count")).bitwidth, 7);

  // Mismatched encode options against an instrumented declaration throw.
  trace::Recorder recorder("hyperspec");
  Encoder encoder(recorder, cube.shape(), {}, wide);
  EXPECT_THROW((void)encoder.encode(cube, {}), support::ContractError);
}

TEST(HyperspecProfile, IsDeterministicForAFixedSeed) {
  const auto cube = make_synthetic_cube({4, 33, 17}, 77);
  const auto a = profile_hyperspec(cube, {12, 256, 256});
  const auto b = profile_hyperspec(cube, {12, 256, 256});
  EXPECT_EQ(a.to_string(), b.to_string());
  ASSERT_EQ(a.group_count(), b.group_count());
  for (const auto id : a.group_ids()) {
    EXPECT_DOUBLE_EQ(a.totals(id).reads, b.totals(id).reads);
    EXPECT_DOUBLE_EQ(a.totals(id).writes, b.totals(id).writes);
    const auto* ra = a.reuse_profile(id);
    const auto* rb = b.reuse_profile(id);
    ASSERT_EQ(ra == nullptr, rb == nullptr);
    if (ra == nullptr) continue;
    ASSERT_EQ(ra->windows.size(), rb->windows.size());
    for (std::size_t w = 0; w < ra->windows.size(); ++w) {
      EXPECT_EQ(ra->windows[w].window_words, rb->windows[w].window_words);
      EXPECT_DOUBLE_EQ(ra->windows[w].misses_per_frame, rb->windows[w].misses_per_frame);
    }
  }
}

TEST(HyperspecProfile, CubeReuseWindowsScaleWithDeclaredGeometry) {
  const auto cube = make_synthetic_cube({3, 16, 16}, 42);
  const auto app = profile_hyperspec(cube, {12, 256, 256});
  const auto* reuse = app.reuse_profile(*app.find_group("cube"));
  ASSERT_NE(reuse, nullptr);
  ASSERT_FALSE(reuse->windows.empty());
  // The largest window is "two declared band planes" — the previous-band
  // hierarchy candidate; misses fall monotonically with capacity.
  EXPECT_EQ(reuse->windows.back().window_words, 2u * 256u * 256u);
  for (std::size_t i = 1; i < reuse->windows.size(); ++i) {
    EXPECT_LE(reuse->windows[i].misses_per_frame, reuse->windows[i - 1].misses_per_frame);
  }
}

}  // namespace
}  // namespace dtse::hyperspec
