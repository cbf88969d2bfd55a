// Tests for the BTPC codec substrate: bitstream, adaptive Huffman, pyramid
// lattice, predictor, and full encoder/decoder round trips.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include <set>

#include "btpc/bitstream.hpp"
#include "btpc/codec.hpp"
#include "btpc/predictor.hpp"
#include "btpc/pyramid.hpp"
#include "entropy/adaptive_huffman.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dtse::btpc {
namespace {

using entropy::AdaptiveHuffmanBank;
using entropy::fold_residual;
using entropy::unfold_residual;

TEST(Bitstream, RoundTripBits) {
  BitWriter writer;
  writer.put(0b101, 3);
  writer.put(0xABCD & 0xFFF, 12);
  writer.put(1, 1);
  writer.put(0, 9);
  const auto words = writer.finish();
  BitReader reader(words);
  EXPECT_EQ(reader.get(3), 0b101u);
  EXPECT_EQ(reader.get(12), 0xABCDu & 0xFFF);
  EXPECT_EQ(reader.get(1), 1u);
  EXPECT_EQ(reader.get(9), 0u);
}

TEST(Bitstream, BitCountTracked) {
  BitWriter writer;
  writer.put(3, 2);
  writer.put(0, 20);
  EXPECT_EQ(writer.bits_written(), 22u);
}

TEST(Bitstream, ReadPastEndLatchesOverrunAndReturnsZeros) {
  // Exhaustion is a *data* condition: the reader soft-fails (zeros + latched
  // overrun flag) instead of throwing, so decode loops over truncated
  // streams finish their bounded work and report a clean Status.
  BitWriter writer;
  writer.put(1, 1);
  const auto words = writer.finish();
  BitReader reader(words);
  EXPECT_EQ(reader.bits_left(), 16u);
  (void)reader.get(16);
  EXPECT_FALSE(reader.overrun());
  EXPECT_EQ(reader.get(1), 0u);
  EXPECT_TRUE(reader.overrun());
  // The latch is sticky and every further read keeps yielding zeros.
  EXPECT_EQ(reader.get(32), 0u);
  EXPECT_TRUE(reader.overrun());
  EXPECT_EQ(reader.bits_left(), 0u);
  EXPECT_EQ(reader.bits_read(), 16u);
}

TEST(Bitstream, PartiallySatisfiableReadConsumesNothing) {
  // A read wider than the bits left trips the overrun latch without
  // consuming the remainder — bits_read() stays at the stream end.
  BitWriter writer;
  writer.put(0xBEEF, 16);
  const auto words = writer.finish();
  BitReader reader(words);
  (void)reader.get(10);
  EXPECT_EQ(reader.get(10), 0u);  // only 6 bits left
  EXPECT_TRUE(reader.overrun());
  EXPECT_EQ(reader.bits_read(), 16u);
}

TEST(Bitstream, WidthRoundTripEveryWriterWidth) {
  // The writer/reader width asymmetry (put <= 24, get <= 32) is deliberate;
  // this pins the invariant: every width a single put can carry round-trips
  // exactly, including when the field straddles word boundaries.
  for (int width = 1; width <= 24; ++width) {
    const auto value = static_cast<std::uint32_t>(
        0xA5A5'A5A5u & (width == 32 ? ~0u : (1u << width) - 1u));
    for (int prefix = 0; prefix <= 15; ++prefix) {
      BitWriter writer;
      if (prefix > 0) writer.put((1u << prefix) - 1u, prefix);
      writer.put(value, width);
      const auto words = writer.finish();
      BitReader reader(words);
      if (prefix > 0) {
        ASSERT_EQ(reader.get(prefix), (1u << prefix) - 1u);
      }
      ASSERT_EQ(reader.get(width), value) << "width " << width << " prefix " << prefix;
      ASSERT_FALSE(reader.overrun());
    }
  }
  // Widths beyond the writer's limit are rejected, not silently truncated.
  BitWriter writer;
  EXPECT_THROW(writer.put(0, 25), support::ContractError);
}

TEST(Bitstream, RejectsOversizedValues) {
  BitWriter writer;
  EXPECT_THROW(writer.put(4, 2), support::ContractError);
  EXPECT_THROW(writer.put(0, 30), support::ContractError);
}

TEST(Bitstream, TwentyFourBitPutIgnoresHighGarbageBits) {
  // The historical contract exempts count == 24 from the fits-in-count
  // check; bits above the width must not leak into the stream.
  BitWriter dirty;
  dirty.put(1, 1);
  dirty.put(0xFF00'0000u | 0x123456u, 24);
  BitWriter clean;
  clean.put(1, 1);
  clean.put(0x123456u, 24);
  EXPECT_EQ(dirty.finish(), clean.finish());
}

TEST(Bitstream, WideReadsStraddleWordBoundaries) {
  // For every read width 1..32, shift the stream by a prefix of 1..15 bits so
  // the wide read starts mid-word and crosses one or two word boundaries.
  for (int width = 1; width <= 32; ++width) {
    for (int prefix = 1; prefix <= 15; ++prefix) {
      const auto value =
          static_cast<std::uint32_t>((0xDEADBEEFCAFEULL >> width) &
                                     (width == 32 ? ~0u : (1u << width) - 1u));
      BitWriter writer;
      writer.put((1u << prefix) - 1u, prefix);
      // The writer accepts at most 24 bits per put; split wide values.
      if (width > 16) {
        writer.put(value >> 16, width - 16);
        writer.put(value & 0xFFFFu, 16);
      } else {
        writer.put(value, width);
      }
      writer.put(0b101, 3);
      const auto words = writer.finish();
      BitReader reader(words);
      ASSERT_EQ(reader.get(prefix), (1u << prefix) - 1u);
      ASSERT_EQ(reader.get(width), value) << "width " << width << " prefix " << prefix;
      ASSERT_EQ(reader.get(3), 0b101u);
      ASSERT_EQ(reader.bits_read(), static_cast<std::uint64_t>(prefix) + width + 3);
    }
  }
}

TEST(Bitstream, Full32BitReadRoundTrips) {
  BitWriter writer;
  writer.put(0xABCD'E, 20);
  writer.put(0xF012, 16);  // together: 0xABCDEF012 = 36 bits
  const auto words = writer.finish();
  BitReader reader(words);
  EXPECT_EQ(reader.get(32), 0xABCDEF01u);
  EXPECT_EQ(reader.get(4), 0x2u);
}

class BitstreamFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitstreamFuzz, RandomSequencesRoundTrip) {
  support::Rng rng(GetParam());
  std::vector<std::pair<std::uint32_t, int>> tokens;
  BitWriter writer;
  for (int i = 0; i < 500; ++i) {
    const int bits = 1 + static_cast<int>(rng.below(20));
    const auto value = static_cast<std::uint32_t>(rng.below(1u << bits));
    tokens.emplace_back(value, bits);
    writer.put(value, bits);
  }
  const auto words = writer.finish();
  BitReader reader(words);
  for (const auto& [value, bits] : tokens) {
    EXPECT_EQ(reader.get(bits), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitstreamFuzz, ::testing::Values(1, 2, 3, 4, 5));

TEST(ResidualFolding, ZigzagRoundTrip) {
  for (int r = -300; r <= 300; ++r) {
    EXPECT_EQ(unfold_residual(fold_residual(r)), r);
  }
  EXPECT_EQ(fold_residual(0), 0);
  EXPECT_EQ(fold_residual(1), 2);
  EXPECT_EQ(fold_residual(-1), 1);
}

TEST(AdaptiveHuffman, InvariantsHoldAfterReset) {
  AdaptiveHuffmanBank bank;
  EXPECT_TRUE(bank.invariants_hold());
}

TEST(AdaptiveHuffman, EncodeDecodeSingleSymbol) {
  AdaptiveHuffmanBank enc;
  AdaptiveHuffmanBank dec;
  BitWriter writer;
  enc.encode(0, 42, writer);
  const auto words = writer.finish();
  BitReader reader(words);
  EXPECT_EQ(dec.decode(0, reader), 42);
}

class HuffmanCoderTest : public ::testing::TestWithParam<int> {};

TEST_P(HuffmanCoderTest, RandomStreamRoundTripsAndKeepsInvariants) {
  const int coder = GetParam();
  AdaptiveHuffmanBank enc;
  AdaptiveHuffmanBank dec;
  support::Rng rng(1000 + static_cast<std::uint64_t>(coder));
  std::vector<int> symbols;
  BitWriter writer;
  for (int i = 0; i < 3000; ++i) {
    // Skewed distribution exercises the FGK swaps heavily.
    const int symbol = static_cast<int>(rng.below(8) == 0 ? rng.below(64) : rng.below(4));
    symbols.push_back(symbol);
    enc.encode(coder, symbol, writer);
  }
  EXPECT_TRUE(enc.invariants_hold());
  const auto words = writer.finish();
  BitReader reader(words);
  for (const int expected : symbols) {
    EXPECT_EQ(dec.decode(coder, reader), expected);
  }
  EXPECT_TRUE(dec.invariants_hold());
}

INSTANTIATE_TEST_SUITE_P(AllCoders, HuffmanCoderTest, ::testing::Range(0, 6));

TEST(AdaptiveHuffman, SkewedSourceCompressesBelowFixedRate) {
  AdaptiveHuffmanBank bank;
  BitWriter writer;
  support::Rng rng(7);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    bank.encode(0, rng.below(16) == 0 ? 1 : 0, writer);
  }
  // A 64-symbol fixed code would need 6 bits/symbol; the adaptive coder
  // should get well under 2 for this heavily skewed source.
  EXPECT_LT(static_cast<double>(writer.bits_written()) / n, 2.0);
}

TEST(AdaptiveHuffman, FrequentSymbolGetsShorterCode) {
  AdaptiveHuffmanBank bank;
  BitWriter writer;
  for (int i = 0; i < 2000; ++i) bank.encode(2, 5, writer);
  EXPECT_LT(bank.code_length(2, 5), bank.code_length(2, 40));
  EXPECT_LE(bank.code_length(2, 5), 2);
}

TEST(AdaptiveHuffman, CodersAreIndependent) {
  AdaptiveHuffmanBank bank;
  BitWriter writer;
  for (int i = 0; i < 500; ++i) bank.encode(1, 7, writer);
  // Coder 3 never saw symbol 7; its code length must be untouched.
  AdaptiveHuffmanBank fresh;
  EXPECT_EQ(bank.code_length(3, 7), fresh.code_length(3, 7));
}

TEST(AdaptiveHuffman, RescalePreservesDecodability) {
  AdaptiveHuffmanBank enc;
  AdaptiveHuffmanBank dec;
  BitWriter writer;
  const int n = 300'000;  // crosses the rescale threshold
  for (int i = 0; i < n; ++i) enc.encode(0, i % 3, writer);
  const auto words = writer.finish();
  BitReader reader(words);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(dec.decode(0, reader), i % 3) << "at symbol " << i;
  }
}

TEST(AdaptiveHuffman, RejectsBadArguments) {
  AdaptiveHuffmanBank bank;
  BitWriter writer;
  EXPECT_THROW(bank.encode(-1, 0, writer), support::ContractError);
  EXPECT_THROW(bank.encode(6, 0, writer), support::ContractError);
  EXPECT_THROW(bank.encode(0, 64, writer), support::ContractError);
  EXPECT_THROW((void)bank.code_length(0, -1), support::ContractError);
}

// --- pyramid lattice ---------------------------------------------------------

class PyramidGeometry : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PyramidGeometry, DetailPointsPartitionTheImage) {
  const auto [w, h] = GetParam();
  std::set<std::pair<int, int>> seen;
  for_each_top_point(w, h, [&](Point p) {
    EXPECT_TRUE(seen.emplace(p.x, p.y).second) << "duplicate top point";
  });
  for (const auto& level : decomposition_levels(w, h)) {
    for_each_detail_point(level, w, h, [&](Point p) {
      EXPECT_GE(p.x, 0);
      EXPECT_LT(p.x, w);
      EXPECT_GE(p.y, 0);
      EXPECT_LT(p.y, h);
      EXPECT_TRUE(seen.emplace(p.x, p.y).second)
          << "point (" << p.x << "," << p.y << ") visited twice";
    });
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(w) * h) << "not all pixels covered";
}

TEST_P(PyramidGeometry, ParentsAreAlwaysAlreadyKnown) {
  const auto [w, h] = GetParam();
  std::set<std::pair<int, int>> known;
  for_each_top_point(w, h, [&](Point p) { known.emplace(p.x, p.y); });
  for (const auto& level : decomposition_levels(w, h)) {
    std::vector<Point> this_level;
    for_each_detail_point(level, w, h, [&](Point p) {
      for (const auto& parent : parent_positions(p, level, w, h)) {
        EXPECT_TRUE(known.count({parent.x, parent.y}) > 0)
            << "unknown parent (" << parent.x << "," << parent.y << ") of (" << p.x
            << "," << p.y << ") at scale " << level.scale;
      }
      this_level.push_back(p);
    });
    for (const auto& p : this_level) known.emplace(p.x, p.y);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, PyramidGeometry,
                         ::testing::Values(std::pair{8, 8}, std::pair{16, 16},
                                           std::pair{32, 32}, std::pair{64, 32},
                                           std::pair{32, 64}, std::pair{48, 40},
                                           std::pair{33, 17}, std::pair{128, 128}));

TEST(Pyramid, DetailCountsMatchIteration) {
  for (const auto& level : decomposition_levels(16, 16)) {
    std::uint64_t n = 0;
    for_each_detail_point(level, 16, 16, [&](Point) { ++n; });
    EXPECT_EQ(detail_point_count(level, 16, 16), n);
  }
}

TEST(Pyramid, FinestLevelIsScaleZero) {
  const auto levels = decomposition_levels(64, 64);
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.back().scale, 0);
  EXPECT_EQ(levels.back().phase, Phase::kDiamond);
  EXPECT_GT(levels.front().scale, 0);
}

// --- predictor ---------------------------------------------------------------

TEST(Predictor, FlatNeighbourhoodIsSmooth) {
  const auto p = predict_from_neighbours({100, 100, 101, 100});
  EXPECT_EQ(p.pixel_class, PixelClass::kSmooth);
  EXPECT_NEAR(p.value, 100, 1);
}

TEST(Predictor, HighOutlierIsRidge) {
  const auto p = predict_from_neighbours({50, 52, 51, 200});
  EXPECT_EQ(p.pixel_class, PixelClass::kRidge);
  EXPECT_NEAR(p.value, 51, 1);  // outlier excluded
}

TEST(Predictor, LowOutlierIsRidge) {
  const auto p = predict_from_neighbours({10, 150, 152, 151});
  EXPECT_EQ(p.pixel_class, PixelClass::kRidge);
  EXPECT_NEAR(p.value, 151, 1);
}

TEST(Predictor, BimodalIsEdge) {
  const auto p = predict_from_neighbours({10, 11, 200, 201});
  EXPECT_EQ(p.pixel_class, PixelClass::kEdge);
}

TEST(Predictor, PredictionWithinNeighbourRange) {
  support::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    std::array<int, 4> n{};
    for (auto& v : n) v = static_cast<int>(rng.below(256));
    const auto p = predict_from_neighbours(n);
    EXPECT_GE(p.value, *std::min_element(n.begin(), n.end()));
    EXPECT_LE(p.value, *std::max_element(n.begin(), n.end()));
  }
}

TEST(Predictor, CoderSelectionCoversSixCoders) {
  std::set<int> coders;
  for (int cls = 0; cls < 4; ++cls) {
    for (const int scale : {0, 1, 3}) {
      const int coder = select_coder(static_cast<PixelClass>(cls), scale);
      EXPECT_GE(coder, 0);
      EXPECT_LT(coder, 6);
      coders.insert(coder);
    }
  }
  EXPECT_EQ(coders.size(), 6u);
}

TEST(Predictor, RefineClassOnlyEscalatesSmooth) {
  EXPECT_EQ(refine_class(PixelClass::kSmooth, 100, 100, 101), PixelClass::kSmooth);
  EXPECT_EQ(refine_class(PixelClass::kSmooth, 100, 200, 100), PixelClass::kTextured);
  EXPECT_EQ(refine_class(PixelClass::kRidge, 100, 200, 100), PixelClass::kRidge);
}

// --- codec -------------------------------------------------------------------

struct CodecCase {
  int width;
  int height;
  support::SyntheticKind kind;
};

class LosslessRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(LosslessRoundTrip, DecodesExactly) {
  const auto& param = GetParam();
  const auto image =
      support::make_synthetic_image(param.width, param.height, param.kind, 99);
  Encoder encoder(param.width, param.height);
  const auto encoded = encoder.encode(image, {});
  Decoder decoder;
  const auto decoded = decoder.decode(encoded);
  EXPECT_EQ(decoded, image);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LosslessRoundTrip,
    ::testing::Values(CodecCase{16, 16, support::SyntheticKind::kGradient},
                      CodecCase{64, 64, support::SyntheticKind::kCompound},
                      CodecCase{64, 64, support::SyntheticKind::kEdges},
                      CodecCase{128, 64, support::SyntheticKind::kTexture},
                      CodecCase{33, 47, support::SyntheticKind::kCompound},
                      CodecCase{256, 256, support::SyntheticKind::kCompound}));

TEST(Codec, GradientCompressesWell) {
  const auto image = support::make_synthetic_image(128, 128, support::SyntheticKind::kGradient, 5);
  Encoder encoder(128, 128);
  const auto encoded = encoder.encode(image, {});
  EXPECT_LT(encoded.bits_per_pixel(), 3.0);
}

TEST(Codec, LossyReducesRateAndBoundsError) {
  const auto image =
      support::make_synthetic_image(128, 128, support::SyntheticKind::kCompound, 13);
  Encoder encoder(128, 128);
  const auto lossless = encoder.encode(image, {});
  CodecOptions lossy_options;
  lossy_options.lossy = true;
  lossy_options.quantizer_delta = 8;
  const auto lossy = encoder.encode(image, lossy_options);
  EXPECT_LT(lossy.bits(), lossless.bits());
  Decoder decoder;
  const auto decoded = decoder.decode(lossy);
  EXPECT_GT(support::Image::psnr(image, decoded), 30.0);
}

TEST(Codec, LossyDeltaOneIsLossless) {
  const auto image =
      support::make_synthetic_image(64, 64, support::SyntheticKind::kCompound, 8);
  Encoder encoder(64, 64);
  CodecOptions options;
  options.lossy = true;
  options.quantizer_delta = 1;
  const auto encoded = encoder.encode(image, options);
  Decoder decoder;
  EXPECT_EQ(decoder.decode(encoded), image);
}

TEST(Codec, SerializeRoundTrip) {
  const auto image =
      support::make_synthetic_image(48, 32, support::SyntheticKind::kCompound, 77);
  Encoder encoder(48, 32);
  const auto encoded = encoder.encode(image, {});
  const auto bytes = serialize(encoded);
  const auto restored = deserialize(bytes);
  EXPECT_EQ(restored.width, encoded.width);
  EXPECT_EQ(restored.height, encoded.height);
  EXPECT_EQ(restored.stream, encoded.stream);
  Decoder decoder;
  EXPECT_EQ(decoder.decode(restored), image);
}

TEST(Codec, DeserializeRejectsGarbage) {
  EXPECT_THROW((void)deserialize({1, 2, 3}), support::ContractError);
}

TEST(Codec, TryDecodeRejectsHostileHeaders) {
  const auto status_of = [](const EncodedImage& encoded) {
    Decoder decoder;
    auto result = decoder.try_decode(encoded);
    EXPECT_FALSE(result.ok());
    return result.status();
  };

  EncodedImage bad_dims;
  bad_dims.width = 0;
  bad_dims.height = 32;
  EXPECT_EQ(status_of(bad_dims).code(), support::StatusCode::kMalformedHeader);

  EncodedImage huge;  // dims inside the per-axis cap, product above the pixel cap
  huge.width = kMaxDecodeDim;
  huge.height = kMaxDecodeDim;
  EXPECT_EQ(status_of(huge).code(), support::StatusCode::kResourceLimit);

  EncodedImage bad_delta;
  bad_delta.width = 8;
  bad_delta.height = 8;
  bad_delta.lossy = true;
  bad_delta.quantizer_delta = 65;
  bad_delta.stream.assign(64, 0);
  EXPECT_EQ(status_of(bad_delta).code(), support::StatusCode::kMalformedHeader);

  EncodedImage starved;  // 64 pixels need >= 64 bits; offer 16
  starved.width = 8;
  starved.height = 8;
  starved.stream.assign(1, 0);
  const auto status = status_of(starved);
  EXPECT_EQ(status.code(), support::StatusCode::kTruncated);
  EXPECT_NE(status.to_string().find("truncated"), std::string::npos);
}

TEST(Codec, TryDeserializeReportsStatusInsteadOfThrowing) {
  // Too short for the header.
  EXPECT_EQ(try_deserialize({1, 2, 3}).status().code(),
            support::StatusCode::kTruncated);

  // Right length, wrong magic.
  std::vector<std::uint8_t> bad_magic(14, 0);
  bad_magic[0] = 'X';
  EXPECT_EQ(try_deserialize(bad_magic).status().code(),
            support::StatusCode::kMalformedHeader);

  // A real container with the tail chopped: declared word count no longer
  // matches the bytes present.
  const auto image =
      support::make_synthetic_image(32, 32, support::SyntheticKind::kCompound, 5);
  Encoder encoder(32, 32);
  auto bytes = serialize(encoder.encode(image, {}));
  bytes.resize(bytes.size() - 2);
  EXPECT_EQ(try_deserialize(bytes).status().code(), support::StatusCode::kTruncated);

  // The untouched container still parses and decodes bit-exactly.
  auto good = try_deserialize(serialize(encoder.encode(image, {})));
  ASSERT_TRUE(good.ok());
  Decoder decoder;
  auto decoded = decoder.try_decode(good.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), image);
}

TEST(Codec, TruncatedStreamIsACleanErrorNeverAThrow) {
  // Chop the entropy stream at every word boundary: each prefix must decode
  // to either a clean Status or a bounded image — never an exception.
  const auto image =
      support::make_synthetic_image(24, 24, support::SyntheticKind::kEdges, 9);
  Encoder encoder(24, 24);
  const auto encoded = encoder.encode(image, {});
  Decoder decoder;
  for (std::size_t words = 0; words < encoded.stream.size(); ++words) {
    EncodedImage cut = encoded;
    cut.stream.resize(words);
    auto result = decoder.try_decode(cut);
    if (result.ok()) {
      EXPECT_EQ(result.value().width(), image.width());
      EXPECT_EQ(result.value().height(), image.height());
    } else {
      EXPECT_NE(result.status().code(), support::StatusCode::kOk);
    }
  }
}

TEST(Codec, MismatchedGeometryThrows) {
  Encoder encoder(32, 32);
  const auto image = support::make_synthetic_image(16, 16, support::SyntheticKind::kGradient, 1);
  EXPECT_THROW((void)encoder.encode(image, {}), support::ContractError);
}

TEST(Codec, EncoderIsReusable) {
  const auto a = support::make_synthetic_image(32, 32, support::SyntheticKind::kCompound, 1);
  const auto b = support::make_synthetic_image(32, 32, support::SyntheticKind::kEdges, 2);
  Encoder encoder(32, 32);
  const auto ea = encoder.encode(a, {});
  const auto eb = encoder.encode(b, {});
  Decoder decoder;
  EXPECT_EQ(decoder.decode(ea), a);
  EXPECT_EQ(decoder.decode(eb), b);
}

// The tiled (strip-fused) traversal must reproduce the level-order bitstream
// byte for byte: the adaptive coders make any reordering visible immediately.
// Asymmetric and odd geometries exercise strip boundaries that do not align
// with any lattice step.
class TiledTraversal : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TiledTraversal, BitstreamIsByteIdenticalToLevelOrder) {
  const auto [w, h] = GetParam();
  const auto image = support::make_synthetic_image(w, h, support::SyntheticKind::kCompound, 21);
  for (const bool lossy : {false, true}) {
    CodecOptions reference;
    reference.traversal = Traversal::kLevelOrder;
    reference.lossy = lossy;
    reference.quantizer_delta = 8;

    Encoder e_ref(w, h);
    const auto ref = e_ref.encode(image, reference);
    // Tiled traversal, default strips and misaligned 7-row strips.
    CodecOptions tiled = reference;
    tiled.traversal = Traversal::kTiled;
    CodecOptions tiny_strips = tiled;
    tiny_strips.tile_rows = 7;  // strips misaligned with every lattice step

    Encoder e_tiled(w, h), e_tiny(w, h);
    EXPECT_EQ(e_tiled.encode(image, tiled).stream, ref.stream) << "lossy=" << lossy;
    EXPECT_EQ(e_tiny.encode(image, tiny_strips).stream, ref.stream) << "lossy=" << lossy;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TiledTraversal,
                         ::testing::Values(std::pair{257, 129}, std::pair{129, 257},
                                           std::pair{64, 64}, std::pair{33, 47},
                                           std::pair{256, 256}));

TEST(Codec, ProfileIsIdenticalAcrossTraversals) {
  // The strip fusion interleaves predict/encode iterations but keeps each
  // body's access sequence (and the image read order feeding the reuse
  // simulation) unchanged, so the extracted application model must match.
  const auto image =
      support::make_synthetic_image(96, 80, support::SyntheticKind::kCompound, 4);
  auto profile_with = [&](Traversal traversal) {
    trace::Recorder recorder("btpc");
    Encoder encoder(recorder, 96, 80, 1024, 1024);
    CodecOptions options;
    options.traversal = traversal;
    (void)encoder.encode(image, options);
    return recorder.build(16.0);
  };
  const auto ref = profile_with(Traversal::kLevelOrder);
  const auto tiled = profile_with(Traversal::kTiled);
  ASSERT_EQ(ref.group_count(), tiled.group_count());
  for (std::size_t i = 0; i < ref.group_count(); ++i) {
    const ir::BasicGroupId id(static_cast<std::uint32_t>(i));
    EXPECT_DOUBLE_EQ(ref.totals(id).reads, tiled.totals(id).reads) << ref.group(id).name;
    EXPECT_DOUBLE_EQ(ref.totals(id).writes, tiled.totals(id).writes) << ref.group(id).name;
  }
  const auto image_id = *ref.find_group("image");
  const auto* ref_reuse = ref.reuse_profile(image_id);
  const auto* tiled_reuse = tiled.reuse_profile(image_id);
  ASSERT_NE(ref_reuse, nullptr);
  ASSERT_NE(tiled_reuse, nullptr);
  ASSERT_EQ(ref_reuse->windows.size(), tiled_reuse->windows.size());
  for (std::size_t i = 0; i < ref_reuse->windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(ref_reuse->windows[i].misses_per_frame,
                     tiled_reuse->windows[i].misses_per_frame)
        << "window " << ref_reuse->windows[i].window_words;
  }
}

TEST(Codec, InstrumentedEncodeMatchesPlainOutput) {
  const auto image =
      support::make_synthetic_image(64, 64, support::SyntheticKind::kCompound, 4);
  Encoder plain(64, 64);
  trace::Recorder recorder("btpc");
  Encoder instrumented(recorder, 64, 64);
  const auto a = plain.encode(image, {});
  const auto b = instrumented.encode(image, {});
  EXPECT_EQ(a.stream, b.stream) << "instrumentation must not change behaviour";
}

TEST(Codec, ProfileHasThePaperShape) {
  const auto image =
      support::make_synthetic_image(64, 64, support::SyntheticKind::kCompound, 4);
  const auto app = btpc::profile_btpc(image, 1024, 1024);
  // The 18-19 important arrays of Section 4.1 with the headline properties.
  EXPECT_GE(app.group_count(), 18u);
  ASSERT_TRUE(app.find_group("image").has_value());
  ASSERT_TRUE(app.find_group("pyr").has_value());
  ASSERT_TRUE(app.find_group("ridge").has_value());
  const auto image_id = *app.find_group("image");
  EXPECT_EQ(app.group(image_id).words, 1024u * 1024u);  // declared design size
  EXPECT_EQ(app.group(*app.find_group("ridge")).bitwidth, 2);
  ASSERT_TRUE(app.find_group("huff_weight").has_value());
  EXPECT_EQ(app.group(*app.find_group("huff_weight")).bitwidth, 20);
  // Reuse profile exists for the hierarchy decision.
  EXPECT_NE(app.reuse_profile(image_id), nullptr);
  // Iterations were scaled to the declared design point (x256 for 64->1024).
  double max_iterations = 0;
  for (const auto body : app.body_ids()) {
    max_iterations =
        std::max(max_iterations, static_cast<double>(app.body(body).iterations));
  }
  EXPECT_GT(max_iterations, 900'000.0);
  EXPECT_NO_THROW(app.validate());
}

}  // namespace
}  // namespace dtse::btpc
