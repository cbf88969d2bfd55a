#include "entropy/entropy_coder.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "entropy/adaptive_huffman.hpp"
#include "entropy/exp_golomb.hpp"
#include "entropy/golomb_rice.hpp"
#include "entropy/rans.hpp"
#include "support/byte_io.hpp"
#include "support/check.hpp"

namespace dtse::entropy {

namespace {

void check_options(const CoderOptions& options) {
  DTSE_CHECK(options.value_bits >= 1 && options.value_bits <= 16,
             "value width out of range");
  DTSE_CHECK(options.unary_limit >= 1 && options.unary_limit <= 24,
             "unary limit out of range");
  DTSE_CHECK(options.rescale_limit >= 8 && options.rescale_limit <= 4096,
             "rescale limit out of range");
}

void check_values(std::span<const std::uint32_t> values, int value_bits) {
  const std::uint32_t bound = 1u << value_bits;
  for (const auto v : values) {
    DTSE_CHECK(v < bound, "batch value does not fit the declared width");
  }
}

/// Shared decode epilogue: a dry soft reader means the stream ended before
/// the batch did.
[[nodiscard]] support::Status finish(const BitReader& reader) {
  if (reader.overrun()) {
    return support::Status::error(support::StatusCode::kTruncated,
                                  "bitstream exhausted mid-batch", reader.bits_read());
  }
  return support::Status{};
}

class HuffmanBatchCoder final : public EntropyCoder {
 public:
  explicit HuffmanBatchCoder(const CoderOptions& options) : options_(options) {}

  [[nodiscard]] Backend backend() const override { return Backend::kHuffman; }

  void encode(std::span<const std::uint32_t> values, BitWriter& writer) override {
    check_values(values, options_.value_bits);
    AdaptiveHuffmanBank bank;
    for (const auto v : values) {
      if (v < static_cast<std::uint32_t>(AdaptiveHuffmanBank::kEscape)) {
        bank.encode(0, static_cast<int>(v), writer);
      } else {
        bank.encode(0, AdaptiveHuffmanBank::kEscape, writer);
        writer.put(v, options_.value_bits);
      }
    }
  }

  [[nodiscard]] support::Status decode(std::size_t count, BitReader& reader,
                                       std::vector<std::uint32_t>& out) override {
    out.clear();
    out.reserve(count);
    AdaptiveHuffmanBank bank;
    for (std::size_t i = 0; i < count; ++i) {
      const int symbol = bank.decode(0, reader);
      out.push_back(symbol == AdaptiveHuffmanBank::kEscape
                        ? reader.get(options_.value_bits)
                        : static_cast<std::uint32_t>(symbol));
    }
    return finish(reader);
  }

 private:
  CoderOptions options_;
};

class RiceBatchCoder final : public EntropyCoder {
 public:
  explicit RiceBatchCoder(const CoderOptions& options) : options_(options) {}

  [[nodiscard]] Backend backend() const override { return Backend::kRice; }

  void encode(std::span<const std::uint32_t> values, BitWriter& writer) override {
    check_values(values, options_.value_bits);
    std::uint32_t accum = kRiceInitCount * kRiceInitMean;
    std::uint32_t count = kRiceInitCount;
    for (const auto v : values) {
      rice_encode(writer, v, rice_k(accum, count, options_.value_bits),
                  options_.unary_limit, options_.value_bits);
      rice_update(accum, count, v, options_.rescale_limit);
    }
  }

  [[nodiscard]] support::Status decode(std::size_t count, BitReader& reader,
                                       std::vector<std::uint32_t>& out) override {
    out.clear();
    out.reserve(count);
    const std::uint32_t maxval = (1u << options_.value_bits) - 1u;
    std::uint32_t accum = kRiceInitCount * kRiceInitMean;
    std::uint32_t n = kRiceInitCount;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t v =
          rice_decode(reader, rice_k(accum, n, options_.value_bits),
                      options_.unary_limit, options_.value_bits);
      // A quotient-coded value can exceed the declared width only on
      // corrupt bits; the width bound is the batch's tripwire.
      if (v > maxval) {
        return support::Status::error(support::StatusCode::kCorrupt,
                                      "decoded value outside the declared width",
                                      reader.bits_read());
      }
      rice_update(accum, n, v, options_.rescale_limit);
      out.push_back(v);
    }
    return finish(reader);
  }

 private:
  CoderOptions options_;
};

class ExpGolombBatchCoder final : public EntropyCoder {
 public:
  explicit ExpGolombBatchCoder(const CoderOptions& options) : options_(options) {}

  [[nodiscard]] Backend backend() const override { return Backend::kExpGolomb; }

  void encode(std::span<const std::uint32_t> values, BitWriter& writer) override {
    check_values(values, options_.value_bits);
    std::uint32_t accum = kRiceInitCount * kRiceInitMean;
    std::uint32_t count = kRiceInitCount;
    for (const auto v : values) {
      eg_encode(writer, v, rice_k(accum, count, options_.value_bits));
      rice_update(accum, count, v, options_.rescale_limit);
    }
  }

  [[nodiscard]] support::Status decode(std::size_t count, BitReader& reader,
                                       std::vector<std::uint32_t>& out) override {
    out.clear();
    out.reserve(count);
    const std::uint32_t maxval = (1u << options_.value_bits) - 1u;
    std::uint32_t accum = kRiceInitCount * kRiceInitMean;
    std::uint32_t n = kRiceInitCount;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t v =
          eg_decode(reader, rice_k(accum, n, options_.value_bits),
                    options_.value_bits + 1);
      if (v > maxval) {
        return support::Status::error(support::StatusCode::kCorrupt,
                                      "decoded value outside the declared width",
                                      reader.bits_read());
      }
      rice_update(accum, n, static_cast<std::uint32_t>(v), options_.rescale_limit);
      out.push_back(static_cast<std::uint32_t>(v));
    }
    return finish(reader);
  }

 private:
  CoderOptions options_;
};

class RansBatchCoder final : public EntropyCoder {
 public:
  explicit RansBatchCoder(const CoderOptions& options) : options_(options) {}

  [[nodiscard]] Backend backend() const override { return Backend::kRans; }

  void encode(std::span<const std::uint32_t> values, BitWriter& writer) override {
    check_values(values, options_.value_bits);
    if (values.empty()) return;
    const auto symbols = rans_expand(values);
    std::array<std::uint32_t, kRansSymbols> counts{};
    for (const auto s : symbols) ++counts[s];
    const auto table = rans_build_table(counts);
    rans_write_table(table, writer);
    std::uint64_t state = kRansL;
    std::vector<std::uint16_t> emitted;
    for (auto it = symbols.rbegin(); it != symbols.rend(); ++it) {
      rans_encode_step(state, table.freq[*it], table.cum[*it], emitted);
    }
    rans_flush(state, emitted, writer);
  }

  [[nodiscard]] support::Status decode(std::size_t count, BitReader& reader,
                                       std::vector<std::uint32_t>& out) override {
    out.clear();
    if (count == 0) return support::Status{};
    out.reserve(count);
    const std::uint32_t maxval = (1u << options_.value_bits) - 1u;
    RansTable table;
    if (auto status = rans_read_table(reader, table); !status.ok()) return status;
    RansDecoder decoder(table);
    if (auto status = decoder.init(reader); !status.ok()) return status;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t v = decoder.decode_value(reader);
      if (v > maxval) {
        return support::Status::error(support::StatusCode::kCorrupt,
                                      "decoded value outside the declared width",
                                      reader.bits_read());
      }
      out.push_back(v);
    }
    return finish(reader);
  }

 private:
  CoderOptions options_;
};

constexpr std::uint8_t kBatchMagic[4] = {'E', 'N', 'T', '1'};
constexpr std::size_t kBatchHeaderBytes = 17;

}  // namespace

std::string_view to_string(Backend backend) {
  switch (backend) {
    case Backend::kHuffman: return "huffman";
    case Backend::kRice: return "rice";
    case Backend::kExpGolomb: return "expgolomb";
    case Backend::kRans: return "rans";
  }
  return "unknown";
}

bool backend_from_name(std::string_view name, Backend& backend) {
  for (const auto candidate : kAllBackends) {
    if (name == to_string(candidate)) {
      backend = candidate;
      return true;
    }
  }
  return false;
}

std::unique_ptr<EntropyCoder> make_coder(Backend backend, const CoderOptions& options) {
  check_options(options);
  switch (backend) {
    case Backend::kHuffman: return std::make_unique<HuffmanBatchCoder>(options);
    case Backend::kRice: return std::make_unique<RiceBatchCoder>(options);
    case Backend::kExpGolomb: return std::make_unique<ExpGolombBatchCoder>(options);
    case Backend::kRans: return std::make_unique<RansBatchCoder>(options);
  }
  DTSE_CHECK(false, "unknown entropy backend");
  return nullptr;
}

EncodedBatch encode_batch(Backend backend, std::span<const std::uint32_t> values,
                          const CoderOptions& options) {
  DTSE_CHECK(values.size() <= kMaxBatchValues, "batch exceeds the value cap");
  auto coder = make_coder(backend, options);
  BitWriter writer;
  coder->encode(values, writer);
  EncodedBatch batch;
  batch.backend = backend;
  batch.value_bits = options.value_bits;
  batch.unary_limit = options.unary_limit;
  batch.rescale_limit = options.rescale_limit;
  batch.count = static_cast<std::uint32_t>(values.size());
  batch.stream = writer.finish();
  return batch;
}

support::Result<std::vector<std::uint32_t>> try_decode_batch(const EncodedBatch& batch) {
  // Header validation before anything allocates; the ranges mirror the
  // encode-side contract checks because every field is data-reachable here.
  if (batch.value_bits < 1 || batch.value_bits > 16) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "value width " + std::to_string(batch.value_bits) + " outside [1, 16]");
  }
  if (batch.unary_limit < 1 || batch.unary_limit > 24) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "unary limit " + std::to_string(batch.unary_limit) + " outside [1, 24]");
  }
  if (batch.rescale_limit < 8 || batch.rescale_limit > 4096) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "rescale limit " + std::to_string(batch.rescale_limit) + " outside [8, 4096]");
  }
  if (batch.count > kMaxBatchValues) {
    return support::Status::error(
        support::StatusCode::kResourceLimit,
        "batch of " + std::to_string(batch.count) + " values exceeds the decode cap");
  }
  // Minimum stream length ties the output allocation to the input size:
  // every prefix-coded value costs at least one bit; a rANS batch carries
  // its fixed table + state framing regardless of payload.
  const std::uint64_t min_bits = batch.backend == Backend::kRans
                                     ? (batch.count > 0 ? kRansBlockBits : 0)
                                     : batch.count;
  if (batch.bits() < min_bits) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "stream of " + std::to_string(batch.bits()) + " bits cannot carry " +
            std::to_string(batch.count) + " values",
        batch.bits());
  }
  CoderOptions options;
  options.value_bits = batch.value_bits;
  options.unary_limit = batch.unary_limit;
  options.rescale_limit = batch.rescale_limit;
  auto coder = make_coder(batch.backend, options);
  BitReader reader(batch.stream);
  std::vector<std::uint32_t> values;
  if (auto status = coder->decode(batch.count, reader, values); !status.ok()) {
    return status;
  }
  return values;
}

std::vector<std::uint8_t> serialize(const EncodedBatch& batch) {
  support::ByteWriter out;
  for (const auto byte : kBatchMagic) out.u8(byte);
  out.u8(static_cast<std::uint8_t>(batch.backend));
  out.u8(static_cast<std::uint8_t>(batch.value_bits));
  out.u8(static_cast<std::uint8_t>(batch.unary_limit));
  out.u16(static_cast<std::uint16_t>(batch.rescale_limit));
  out.u32(batch.count);
  out.u32(static_cast<std::uint32_t>(batch.stream.size()));
  for (const auto word : batch.stream) out.u16(word);
  return out.take();
}

support::Result<EncodedBatch> try_deserialize(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kBatchHeaderBytes) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "container of " + std::to_string(bytes.size()) + " bytes is shorter than the " +
            std::to_string(kBatchHeaderBytes) + "-byte header",
        static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  if (!std::equal(std::begin(kBatchMagic), std::end(kBatchMagic), bytes.begin())) {
    return support::Status::error(support::StatusCode::kMalformedHeader,
                                  "bad container magic (expected \"ENT1\")", 0);
  }
  support::ByteReader in(bytes.data() + sizeof kBatchMagic,
                         bytes.size() - sizeof kBatchMagic);
  const std::uint8_t backend = in.u8();
  if (!backend_valid(backend)) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "unknown entropy backend " + std::to_string(backend), 32);
  }
  EncodedBatch batch;
  batch.backend = static_cast<Backend>(backend);
  batch.value_bits = in.u8();
  batch.unary_limit = in.u8();
  batch.rescale_limit = in.u16();
  batch.count = in.u32();
  const std::size_t words = in.u32();
  // The declared word count bounds the allocation by the actual input size.
  if (in.remaining() < words * 2) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "container declares " + std::to_string(words) + " stream words but carries " +
            std::to_string(in.remaining() / 2),
        static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  batch.stream.reserve(words);
  for (std::size_t i = 0; i < words; ++i) batch.stream.push_back(in.u16());
  return batch;
}

}  // namespace dtse::entropy
