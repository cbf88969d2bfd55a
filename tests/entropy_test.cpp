// Tests for the entropy subsystem: the coding primitives the codecs call,
// and the codec containers that carry the roster backends.
//
//  * golden bitstreams — the Huffman and Golomb-Rice codec paths still
//    produce byte-identical containers to the pre-roster encoders, and the
//    extended wire formats (BTP2 / HSC2) are pinned so drift is a
//    deliberate, versioned act,
//  * codec containers — BTP2 and HSC2 carry each backend their codec
//    supports and refuse the ones it does not,
//  * primitives — Exp-Golomb codes and the rANS table/decoder, the latter
//    against the reference block writer in tests/oracles/rans_encoder.hpp.
//
// Round trips, truncation and corruption per backend run through the codecs
// themselves (tests/btpc_test.cpp, tests/hyperspec_test.cpp,
// tests/fault_injection_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "btpc/codec.hpp"
#include "entropy/bitstream.hpp"
#include "entropy/entropy_coder.hpp"
#include "entropy/exp_golomb.hpp"
#include "entropy/rans.hpp"
#include "hyperspec/codec.hpp"
#include "oracles/rans_encoder.hpp"
#include "support/image.hpp"
#include "support/status.hpp"

namespace dtse::entropy {
namespace {

using support::StatusCode;

/// FNV-1a over a serialized container: the golden-bitstream fingerprint.
[[nodiscard]] std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const auto b : bytes) {
    hash ^= b;
    hash *= 1099511628211ull;
  }
  return hash;
}

// --- golden bitstreams -------------------------------------------------------
// The exact bytes are part of the contract: the refactor that moved the
// Huffman bank and the Golomb-Rice primitives into entropy/ promised
// byte-identical output, and these fingerprints were captured from the
// pre-roster encoders.  A mismatch means the wire format changed — bump the
// container version instead of updating the hash casually.

TEST(GoldenBitstreams, BtpcLosslessHuffmanContainerIsByteStable) {
  const auto image =
      support::make_synthetic_image(48, 48, support::SyntheticKind::kCompound, 4242);
  btpc::Encoder encoder(48, 48);
  const auto bytes = btpc::serialize(encoder.encode(image));
  EXPECT_EQ(bytes.size(), 862u);
  EXPECT_EQ(fnv1a(bytes), 0x61b719e9ee260483ull);
}

TEST(GoldenBitstreams, BtpcLossyHuffmanContainerIsByteStable) {
  const auto image =
      support::make_synthetic_image(32, 32, support::SyntheticKind::kEdges, 99);
  btpc::Encoder encoder(32, 32);
  btpc::CodecOptions options;
  options.lossy = true;
  options.quantizer_delta = 4;
  const auto bytes = btpc::serialize(encoder.encode(image, options));
  EXPECT_EQ(bytes.size(), 348u);
  EXPECT_EQ(fnv1a(bytes), 0xd689d95af90424bfull);
}

TEST(GoldenBitstreams, HyperspecRiceContainerIsByteStable) {
  const auto cube = hyperspec::make_synthetic_cube({4, 12, 12}, 31);
  hyperspec::Encoder encoder({4, 12, 12});
  const auto bytes = hyperspec::serialize(encoder.encode(cube));
  EXPECT_EQ(bytes.size(), 522u);
  EXPECT_EQ(fnv1a(bytes), 0x5dfa556b931849b7ull);
}

TEST(GoldenBitstreams, HyperspecNarrowRiceContainerIsByteStable) {
  const auto cube = hyperspec::make_synthetic_cube({8, 8, 16}, 77);
  hyperspec::Encoder encoder({8, 8, 16});
  hyperspec::HsCodecOptions options;
  options.unary_limit = 8;
  options.rescale_limit = 32;
  const auto bytes = hyperspec::serialize(encoder.encode(cube, options));
  EXPECT_EQ(bytes.size(), 758u);
  EXPECT_EQ(fnv1a(bytes), 0xbb583201e4deca61ull);
}

TEST(GoldenBitstreams, BtpcRosterContainersAreByteStable) {
  // BTP2 framing pinned per roster backend.  A mismatch means the wire
  // format moved — bump the container version instead of editing these.
  const auto image =
      support::make_synthetic_image(48, 48, support::SyntheticKind::kCompound, 4242);
  const struct {
    Backend backend;
    std::size_t size;
    std::uint64_t hash;
  } goldens[] = {
      {Backend::kRice, 831u, 0x872a5008a0cf24feull},
      {Backend::kExpGolomb, 857u, 0xb4d91decc34b3aeaull},
  };
  for (const auto& golden : goldens) {
    btpc::Encoder encoder(48, 48);
    btpc::CodecOptions options;
    options.backend = golden.backend;
    const auto bytes = btpc::serialize(encoder.encode(image, options));
    EXPECT_EQ(bytes.size(), golden.size) << to_string(golden.backend);
    EXPECT_EQ(fnv1a(bytes), golden.hash) << to_string(golden.backend);
  }
}

TEST(GoldenBitstreams, HyperspecRosterContainersAreByteStable) {
  // HSC2 framing pinned per roster backend.
  const auto cube = hyperspec::make_synthetic_cube({4, 12, 12}, 31);
  const struct {
    Backend backend;
    std::size_t size;
    std::uint64_t hash;
  } goldens[] = {
      {Backend::kExpGolomb, 543u, 0x33162cbd26b85081ull},
      {Backend::kRans, 2197u, 0x8c9c743e5ba0a40bull},
  };
  for (const auto& golden : goldens) {
    hyperspec::Encoder encoder({4, 12, 12});
    hyperspec::HsCodecOptions options;
    options.backend = golden.backend;
    const auto bytes = hyperspec::serialize(encoder.encode(cube, options));
    EXPECT_EQ(bytes.size(), golden.size) << to_string(golden.backend);
    EXPECT_EQ(fnv1a(bytes), golden.hash) << to_string(golden.backend);
  }
}

// --- codec containers carry the backend --------------------------------------

TEST(CodecContainers, BtpcExtendedContainerRoundTripsRosterBackends) {
  const auto image =
      support::make_synthetic_image(32, 32, support::SyntheticKind::kCompound, 7);
  for (const auto backend : {Backend::kRice, Backend::kExpGolomb}) {
    btpc::Encoder encoder(32, 32);
    btpc::CodecOptions options;
    options.backend = backend;
    const auto bytes = btpc::serialize(encoder.encode(image, options));
    EXPECT_EQ(bytes[3], '2') << "roster backends use the BTP2 framing";
    EXPECT_EQ(bytes[10], static_cast<std::uint8_t>(backend));

    const auto reparsed = btpc::try_deserialize(bytes);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
    EXPECT_EQ(reparsed.value().backend, backend);
    const auto decoded = btpc::Decoder{}.try_decode(reparsed.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_TRUE(decoded.value() == image) << to_string(backend);
  }
}

TEST(CodecContainers, HyperspecExtendedContainerRoundTripsRosterBackends) {
  const auto cube = hyperspec::make_synthetic_cube({3, 10, 10}, 13);
  for (const auto backend : {Backend::kExpGolomb, Backend::kRans}) {
    hyperspec::Encoder encoder({3, 10, 10});
    hyperspec::HsCodecOptions options;
    options.backend = backend;
    const auto bytes = hyperspec::serialize(encoder.encode(cube, options));
    EXPECT_EQ(bytes[3], '2') << "roster backends use the HSC2 framing";
    EXPECT_EQ(bytes[14], static_cast<std::uint8_t>(backend));

    const auto reparsed = hyperspec::try_deserialize(bytes);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
    EXPECT_EQ(reparsed.value().backend, backend);
    const auto decoded = hyperspec::Decoder{}.try_decode(reparsed.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_TRUE(decoded.value() == cube) << to_string(backend);
  }
}

TEST(CodecContainers, DecodersRejectForeignBackends) {
  // Only roster values are backend bytes at all...
  EXPECT_TRUE(backend_valid(3));
  EXPECT_FALSE(backend_valid(4));
  EXPECT_FALSE(backend_valid(0xFF));

  // ...and the support matrix is enforced on the decode side too: a header
  // naming a backend the codec never emits is malformed, not a crash.
  const auto image =
      support::make_synthetic_image(24, 24, support::SyntheticKind::kCompound, 5);
  btpc::Encoder encoder(24, 24);
  auto encoded = encoder.encode(image, {});
  encoded.backend = Backend::kRans;
  EXPECT_EQ(btpc::Decoder{}.try_decode(encoded).status().code(),
            StatusCode::kMalformedHeader);

  hyperspec::Encoder hs_encoder({2, 8, 8});
  auto hs_encoded = hs_encoder.encode(hyperspec::make_synthetic_cube({2, 8, 8}, 3), {});
  hs_encoded.backend = Backend::kHuffman;
  EXPECT_EQ(hyperspec::Decoder{}.try_decode(hs_encoded).status().code(),
            StatusCode::kMalformedHeader);
}

// --- primitives --------------------------------------------------------------

TEST(ExpGolombPrimitives, RoundTripsAcrossOrders) {
  for (int k = 0; k <= 8; ++k) {
    entropy::BitWriter writer;
    for (std::uint32_t v = 0; v <= 200; ++v) eg_encode(writer, v, k);
    const auto stream = writer.finish();
    entropy::BitReader reader(stream);
    for (std::uint32_t v = 0; v <= 200; ++v) {
      ASSERT_EQ(eg_decode(reader, k, 16), v) << "k=" << k;
    }
    EXPECT_FALSE(reader.overrun());
  }
}

TEST(ExpGolombPrimitives, BoundedPrefixScanReturnsInvalid) {
  const std::vector<std::uint16_t> empty;
  entropy::BitReader reader(empty);
  EXPECT_EQ(eg_decode(reader, 0, 5), kEgInvalid);
  EXPECT_TRUE(reader.overrun());
}

TEST(RansPrimitives, ExpandAppliesTheEscape) {
  const auto symbols =
      oracle::rans_expand(std::vector<std::uint32_t>{5, 254, 255, 300, 65535});
  const std::vector<std::uint8_t> expected = {5,   254, 255, 255, 0,  255,
                                              44,  1,   255, 255, 255};
  EXPECT_EQ(symbols, expected);
}

TEST(RansPrimitives, TableNormalizesToTheScale) {
  std::array<std::uint32_t, kRansSymbols> counts{};
  counts[0] = 1;
  counts[7] = 1000000;
  counts[255] = 1;
  const auto table = rans_build_table(counts);
  std::uint32_t sum = 0;
  for (const auto f : table.freq) sum += f;
  EXPECT_EQ(sum, kRansScale);
  EXPECT_GE(table.freq[0], 1u);   // present symbols keep a nonzero slot
  EXPECT_GE(table.freq[255], 1u);
  EXPECT_EQ(table.cum[kRansSymbols], kRansScale);
}

TEST(RansPrimitives, StepFlushDecodeRoundTrip) {
  const std::vector<std::uint8_t> symbols = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  std::array<std::uint32_t, kRansSymbols> counts{};
  for (const auto s : symbols) ++counts[s];
  const auto table = rans_build_table(counts);

  entropy::BitWriter writer;
  oracle::rans_write_table(table, writer);
  std::uint64_t state = kRansL;
  std::vector<std::uint16_t> emitted;
  for (auto it = symbols.rbegin(); it != symbols.rend(); ++it) {
    rans_encode_step(state, table.freq[*it], table.cum[*it], emitted);
  }
  oracle::rans_flush(state, emitted, writer);
  const auto stream = writer.finish();

  entropy::BitReader reader(stream);
  RansTable parsed;
  ASSERT_TRUE(rans_read_table(reader, parsed).ok());
  RansDecoder decoder(parsed);
  ASSERT_TRUE(decoder.init(reader).ok());
  for (const auto s : symbols) {
    ASSERT_EQ(decoder.decode_symbol(reader), s);
  }
  EXPECT_FALSE(reader.overrun());
}

TEST(RansPrimitives, ReadTableRejectsABadChecksum) {
  entropy::BitWriter writer;
  for (int s = 0; s < kRansSymbols; ++s) writer.put(0, kRansFreqBits);
  const auto stream = writer.finish();
  entropy::BitReader reader(stream);
  RansTable table;
  EXPECT_EQ(rans_read_table(reader, table).code(), StatusCode::kCorrupt);
}

}  // namespace
}  // namespace dtse::entropy
