// Roster-level tests for the entropy subsystem.
//
// Three layers of guarantees live here:
//  * the cross-backend property — every roster member round-trips the same
//    residual corpora bit-exactly through the batch interface AND through
//    the serialized "ENT1" container,
//  * golden bitstreams — the refactored Huffman and Golomb-Rice codec paths
//    still produce byte-identical containers to the pre-roster encoders,
//    and the new wire formats (ENT1 / BTP2 / HSC2) are pinned so drift is a
//    deliberate, versioned act,
//  * hardened-decode tripwires — every documented Status arm of the batch
//    container is reachable and returns the documented code.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "btpc/codec.hpp"
#include "entropy/bitstream.hpp"
#include "entropy/entropy_coder.hpp"
#include "entropy/exp_golomb.hpp"
#include "entropy/golomb_rice.hpp"
#include "entropy/rans.hpp"
#include "hyperspec/codec.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
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

// --- shared residual corpora -------------------------------------------------
// The same four distributions every backend must survive: flat noise, the
// degenerate all-zeros run, escape-heavy values (past the Huffman alphabet
// and the rANS byte range) and the width-edge boundary values.

[[nodiscard]] std::vector<std::uint32_t> uniform_corpus(std::size_t n,
                                                        std::uint32_t bound,
                                                        std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::uint32_t> values(n);
  for (auto& v : values) v = static_cast<std::uint32_t>(rng.below(bound));
  return values;
}

[[nodiscard]] std::vector<std::uint32_t> escape_heavy_corpus(std::size_t n,
                                                             std::uint32_t bound,
                                                             std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::uint32_t> values(n);
  for (auto& v : values) {
    v = static_cast<std::uint32_t>(255 + rng.below(bound - 255));
  }
  return values;
}

[[nodiscard]] std::vector<std::uint32_t> width_edge_corpus(int value_bits) {
  const std::uint32_t maxval = (1u << value_bits) - 1u;
  std::vector<std::uint32_t> values;
  for (int repeat = 0; repeat < 8; ++repeat) {
    for (const std::uint32_t v : {0u, maxval, 1u, maxval - 1u,  // width edges
                                  62u, 63u, 64u,                // Huffman escape edge
                                  254u, 255u, 256u}) {          // rANS escape edge
      values.push_back(std::min(v, maxval));
    }
  }
  return values;
}

/// Mixed corpus shared with the golden ENT1 fingerprints below.
[[nodiscard]] std::vector<std::uint32_t> mixed_corpus(std::size_t n,
                                                      std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::uint32_t> values(n);
  for (auto& v : values) {
    v = static_cast<std::uint32_t>(rng.below(16) == 0 ? 255 + rng.below(3841)
                                                      : rng.below(64));
  }
  return values;
}

void expect_roundtrip(Backend backend, const std::vector<std::uint32_t>& values,
                      const CoderOptions& options, const std::string& what) {
  const auto batch = encode_batch(backend, values, options);
  const auto direct = try_decode_batch(batch);
  ASSERT_TRUE(direct.ok()) << what << ": " << direct.status().to_string();
  EXPECT_EQ(direct.value(), values) << what << ": batch decode diverged";

  // And once more through the byte container.
  const auto reparsed = try_deserialize(serialize(batch));
  ASSERT_TRUE(reparsed.ok()) << what << ": " << reparsed.status().to_string();
  const auto via_container = try_decode_batch(reparsed.value());
  ASSERT_TRUE(via_container.ok()) << what << ": " << via_container.status().to_string();
  EXPECT_EQ(via_container.value(), values) << what << ": container decode diverged";
}

// --- the cross-backend property ----------------------------------------------

TEST(EntropyRoster, EveryBackendRoundTripsTheSharedCorpora) {
  const CoderOptions options;  // value_bits = 12
  const std::uint32_t bound = 1u << options.value_bits;
  const std::vector<std::pair<std::string, std::vector<std::uint32_t>>> corpora = {
      {"uniform", uniform_corpus(512, bound, 101)},
      {"all-zeros", std::vector<std::uint32_t>(512, 0)},
      {"escape-heavy", escape_heavy_corpus(512, bound, 103)},
      {"width-edge", width_edge_corpus(options.value_bits)},
  };
  for (const auto backend : kAllBackends) {
    for (const auto& [name, values] : corpora) {
      expect_roundtrip(backend, values, options,
                       std::string(to_string(backend)) + "/" + name);
    }
  }
}

TEST(EntropyRoster, EveryBackendRoundTripsNarrowAndWideWidths) {
  CoderOptions narrow;
  narrow.value_bits = 1;
  CoderOptions wide;
  wide.value_bits = 16;
  for (const auto backend : kAllBackends) {
    expect_roundtrip(backend, uniform_corpus(256, 2, 107), narrow,
                     std::string(to_string(backend)) + "/1-bit");
    expect_roundtrip(backend, width_edge_corpus(16), wide,
                     std::string(to_string(backend)) + "/16-bit-edges");
  }
}

TEST(EntropyRoster, EveryBackendRoundTripsTheEmptyBatch) {
  for (const auto backend : kAllBackends) {
    expect_roundtrip(backend, {}, {}, std::string(to_string(backend)) + "/empty");
  }
}

TEST(EntropyRoster, EncodingIsDeterministic) {
  const auto values = mixed_corpus(300, 109);
  for (const auto backend : kAllBackends) {
    const auto a = encode_batch(backend, values, {});
    const auto b = encode_batch(backend, values, {});
    EXPECT_EQ(a.stream, b.stream) << to_string(backend);
  }
}

TEST(EntropyRoster, NamesRoundTripThroughTheParser) {
  for (const auto backend : kAllBackends) {
    Backend parsed{};
    ASSERT_TRUE(backend_from_name(to_string(backend), parsed)) << to_string(backend);
    EXPECT_EQ(parsed, backend);
  }
  Backend unused{};
  EXPECT_FALSE(backend_from_name("golomb", unused));
  EXPECT_FALSE(backend_from_name("", unused));
  EXPECT_TRUE(backend_valid(3));
  EXPECT_FALSE(backend_valid(4));
  EXPECT_FALSE(backend_valid(0xFF));
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

TEST(GoldenBitstreams, EntropyBatchContainersAreByteStable) {
  const auto corpus = mixed_corpus(256, 2026);
  const struct {
    Backend backend;
    std::size_t size;
    std::uint64_t hash;
  } goldens[] = {
      {Backend::kHuffman, 239, 0x8c867deda8ca8dd7ull},
      {Backend::kRice, 287, 0x6f3fc2bc2face1adull},
      {Backend::kExpGolomb, 273, 0xc1fcb48bde3d2b8eull},
      {Backend::kRans, 645, 0x0add7223f6ade75full},
  };
  for (const auto& golden : goldens) {
    const auto bytes = serialize(encode_batch(golden.backend, corpus, {}));
    EXPECT_EQ(bytes.size(), golden.size) << to_string(golden.backend);
    EXPECT_EQ(fnv1a(bytes), golden.hash) << to_string(golden.backend);
  }
}

// --- container layouts -------------------------------------------------------

TEST(EntropyContainer, HeaderLayoutMatchesTheSpec) {
  const auto batch = encode_batch(Backend::kRans, mixed_corpus(64, 2027), {});
  const auto bytes = serialize(batch);
  ASSERT_EQ(bytes.size(), 17u + batch.stream.size() * 2);
  EXPECT_EQ(bytes[0], 'E');
  EXPECT_EQ(bytes[1], 'N');
  EXPECT_EQ(bytes[2], 'T');
  EXPECT_EQ(bytes[3], '1');
  EXPECT_EQ(bytes[4], static_cast<std::uint8_t>(Backend::kRans));
  EXPECT_EQ(bytes[5], 12u);                       // value_bits
  EXPECT_EQ(bytes[6], 16u);                       // unary_limit
  EXPECT_EQ((bytes[7] << 8) | bytes[8], 64);      // rescale_limit, big-endian
  const std::uint32_t count = (static_cast<std::uint32_t>(bytes[9]) << 24) |
                              (static_cast<std::uint32_t>(bytes[10]) << 16) |
                              (static_cast<std::uint32_t>(bytes[11]) << 8) |
                              bytes[12];
  EXPECT_EQ(count, 64u);
  const std::uint32_t words = (static_cast<std::uint32_t>(bytes[13]) << 24) |
                              (static_cast<std::uint32_t>(bytes[14]) << 16) |
                              (static_cast<std::uint32_t>(bytes[15]) << 8) |
                              bytes[16];
  EXPECT_EQ(words, batch.stream.size());
}

TEST(EntropyContainer, ParserReportsTheDocumentedStatusCodes) {
  const auto pristine = serialize(encode_batch(Backend::kRice, mixed_corpus(64, 2028), {}));

  auto short_header = pristine;
  short_header.resize(16);
  EXPECT_EQ(try_deserialize(short_header).status().code(), StatusCode::kTruncated);

  auto bad_magic = pristine;
  bad_magic[0] = 'X';
  EXPECT_EQ(try_deserialize(bad_magic).status().code(), StatusCode::kMalformedHeader);

  auto bad_backend = pristine;
  bad_backend[4] = 4;
  EXPECT_EQ(try_deserialize(bad_backend).status().code(), StatusCode::kMalformedHeader);

  auto missing_payload = pristine;
  missing_payload.resize(missing_payload.size() - 2);
  EXPECT_EQ(try_deserialize(missing_payload).status().code(), StatusCode::kTruncated);

  // Trailing bytes beyond the declared words are tolerated (framing inside a
  // larger file), and the payload still decodes bit-exactly.
  auto padded = pristine;
  padded.push_back(0xAB);
  padded.push_back(0xCD);
  const auto reparsed = try_deserialize(padded);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_TRUE(try_decode_batch(reparsed.value()).ok());
}

TEST(EntropyBatch, DecodeValidatesTheHeaderRanges) {
  const auto pristine = encode_batch(Backend::kRice, mixed_corpus(32, 2029), {});

  auto batch = pristine;
  batch.value_bits = 0;
  EXPECT_EQ(try_decode_batch(batch).status().code(), StatusCode::kMalformedHeader);
  batch = pristine;
  batch.value_bits = 17;
  EXPECT_EQ(try_decode_batch(batch).status().code(), StatusCode::kMalformedHeader);
  batch = pristine;
  batch.unary_limit = 25;
  EXPECT_EQ(try_decode_batch(batch).status().code(), StatusCode::kMalformedHeader);
  batch = pristine;
  batch.rescale_limit = 4;
  EXPECT_EQ(try_decode_batch(batch).status().code(), StatusCode::kMalformedHeader);
  batch = pristine;
  batch.count = kMaxBatchValues + 1;
  EXPECT_EQ(try_decode_batch(batch).status().code(), StatusCode::kResourceLimit);
}

TEST(EntropyBatch, UndersizedStreamsAreTruncatedBeforeAllocation) {
  // A prefix-coded batch needs at least one bit per value...
  EncodedBatch sparse;
  sparse.backend = Backend::kRice;
  sparse.count = 100;
  EXPECT_EQ(try_decode_batch(sparse).status().code(), StatusCode::kTruncated);

  // ...and a rANS batch carries its fixed table + state framing.
  auto rans = encode_batch(Backend::kRans, mixed_corpus(64, 2030), {});
  rans.stream.resize(100);  // 1600 bits < kRansBlockBits
  EXPECT_EQ(try_decode_batch(rans).status().code(), StatusCode::kTruncated);
}

TEST(EntropyBatch, CorruptRansTableIsRejectedByTheChecksum) {
  auto batch = encode_batch(Backend::kRans, mixed_corpus(64, 2031), {});
  std::fill(batch.stream.begin(), batch.stream.end(), std::uint16_t{0});
  EXPECT_EQ(try_decode_batch(batch).status().code(), StatusCode::kCorrupt);
}

TEST(EntropyBatch, DryStreamTripsTheWidthTripwire) {
  // Chop an Exp-Golomb batch of wide values down to one stream word: the
  // soft reader runs dry mid-batch, feeds zeros, and the bounded prefix
  // scan surfaces the corruption as a width violation.
  auto batch = encode_batch(Backend::kExpGolomb,
                            std::vector<std::uint32_t>(4, 4095u), {});
  ASSERT_GT(batch.stream.size(), 1u);
  batch.stream.resize(1);
  EXPECT_EQ(try_decode_batch(batch).status().code(), StatusCode::kCorrupt);
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
  // The support matrix is enforced on the decode side too: a header naming
  // a backend the codec never emits is malformed, not a crash.
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
  const auto symbols = rans_expand(std::vector<std::uint32_t>{5, 254, 255, 300, 65535});
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
  rans_write_table(table, writer);
  std::uint64_t state = kRansL;
  std::vector<std::uint16_t> emitted;
  for (auto it = symbols.rbegin(); it != symbols.rend(); ++it) {
    rans_encode_step(state, table.freq[*it], table.cum[*it], emitted);
  }
  rans_flush(state, emitted, writer);
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
