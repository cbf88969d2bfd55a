#include "hyperspec/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>
#include <string>

#include "entropy/exp_golomb.hpp"
#include "entropy/golomb_rice.hpp"
#include "support/byte_io.hpp"
#include "support/rng.hpp"

namespace dtse::hyperspec {

namespace {

void check_options(const HsCodecOptions& options) {
  DTSE_CHECK(options.dynamic_range_bits >= 2 && options.dynamic_range_bits <= 16,
             "dynamic range out of range");
  DTSE_CHECK(options.unary_limit >= 1 && options.unary_limit <= 24,
             "unary limit out of range");
  DTSE_CHECK(options.rescale_limit >= 8 && options.rescale_limit <= 4096,
             "rescale limit out of range");
  DTSE_CHECK(options.backend != entropy::Backend::kHuffman,
             "the hyperspectral stream does not support the Huffman backend");
}

/// Escape payload width: the mapped residual never exceeds maxval — in-band
/// values are <= 2*theta <= maxval, and the tail is theta + |delta| <=
/// min(pred, maxval - pred) + max(pred, maxval - pred) = maxval — so D raw
/// bits always fit it.
[[nodiscard]] constexpr int raw_bits(const HsCodecOptions& options) {
  return options.dynamic_range_bits;
}

/// Causal neighbour-oriented local sum at (y, x), scaled by 4 (CCSDS-123
/// narrow local sum).  Valid for every position except (0, 0); `s` reads a
/// sample of the band the sum is taken over.
template <typename SampleFn>
[[nodiscard]] int local_sum(SampleFn&& s, int y, int x, int width) {
  if (y == 0) return 4 * s(y, x - 1);
  if (x == 0) {
    const int north = s(y - 1, x);
    const int north_east = width > 1 ? s(y - 1, x + 1) : north;
    return 2 * (north + north_east);
  }
  const int west = s(y, x - 1);
  const int north_west = s(y - 1, x - 1);
  const int north = s(y - 1, x);
  const int north_east = x + 1 < width ? s(y - 1, x + 1) : north;
  return west + north_west + north + north_east;
}

/// Prediction for the sample at (y, x).  Band 0 predicts the spatial local
/// mean; later bands start from the co-located previous-band sample and
/// correct it by the difference of the two bands' local sums (the local
/// spatial structure travels across bands, the offset does not).
template <typename CurrFn, typename PrevFn>
[[nodiscard]] int predict_sample(bool has_prev, CurrFn&& curr, PrevFn&& prev, int y,
                                 int x, int width, int maxval) {
  if (!has_prev) {
    if (y == 0 && x == 0) return (maxval + 1) / 2;
    return std::clamp((local_sum(curr, y, x, width) + 2) >> 2, 0, maxval);
  }
  const int colocated = prev(y, x);
  if (y == 0 && x == 0) return colocated;
  const int diff = local_sum(curr, y, x, width) - local_sum(prev, y, x, width);
  return std::clamp(colocated + ((diff + 2) >> 2), 0, maxval);
}

/// CCSDS-style bounded residual mapping: residuals within the symmetric
/// feasible band [-theta, theta] interleave by sign; the one-sided tail
/// beyond it maps monotonically (its sign is implied by which bound of
/// [0, maxval] the prediction sits closer to).
[[nodiscard]] int map_residual(int sample, int pred, int maxval) {
  const int delta = sample - pred;
  const int theta = std::min(pred, maxval - pred);
  if (delta >= -theta && delta <= theta) {
    return delta >= 0 ? 2 * delta : -2 * delta - 1;
  }
  return theta + std::abs(delta);
}

[[nodiscard]] int unmap_residual(int mapped, int pred, int maxval) {
  const int theta = std::min(pred, maxval - pred);
  if (mapped <= 2 * theta) {
    return (mapped & 1) == 0 ? mapped >> 1 : -((mapped + 1) >> 1);
  }
  const int magnitude = mapped - theta;
  return pred <= maxval - pred ? magnitude : -magnitude;
}

/// Fills zeroed declared-geometry fields from the profiled shape.  Runs
/// before the instrumented members are constructed, so it also carries the
/// geometry validation for the delegating constructor.
[[nodiscard]] CubeShape fill_declared(CubeShape declared, const CubeShape& shape) {
  DTSE_CHECK(shape.valid(), "cube geometry must be positive");
  if (declared.bands == 0) declared.bands = shape.bands;
  if (declared.height == 0) declared.height = shape.height;
  if (declared.width == 0) declared.width = shape.width;
  DTSE_CHECK(declared.valid(), "declared cube geometry must be positive");
  return declared;
}

}  // namespace

Cube make_synthetic_cube(CubeShape shape, std::uint64_t seed, int dynamic_range_bits) {
  DTSE_CHECK(shape.valid(), "cube geometry must be positive");
  DTSE_CHECK(dynamic_range_bits >= 2 && dynamic_range_bits <= 16,
             "dynamic range out of range");
  const int maxval = (1 << dynamic_range_bits) - 1;
  support::Rng rng(seed);

  // One low-frequency spatial basis shared by every band: two sinusoids plus
  // a diagonal ramp, normalized to [0, 1].
  const double fx = rng.uniform(0.5, 2.5);
  const double fy = rng.uniform(0.5, 2.5);
  const double phase_x = rng.uniform(0.0, 6.28318530717958648);
  const double phase_y = rng.uniform(0.0, 6.28318530717958648);
  std::vector<double> basis(shape.plane_samples());
  for (int y = 0; y < shape.height; ++y) {
    for (int x = 0; x < shape.width; ++x) {
      const double u = shape.width > 1 ? static_cast<double>(x) / (shape.width - 1) : 0.0;
      const double v =
          shape.height > 1 ? static_cast<double>(y) / (shape.height - 1) : 0.0;
      const double wave = 0.25 * std::sin(6.28318530717958648 * fx * u + phase_x) +
                          0.25 * std::sin(6.28318530717958648 * fy * v + phase_y);
      basis[static_cast<std::size_t>(y) * shape.width + x] =
          std::clamp(0.5 + 0.2 * (u + v - 1.0) + wave, 0.0, 1.0);
    }
  }

  // Per-band gain/offset drift as a small random walk (strong band-to-band
  // correlation), plus a sprinkle of per-sample sensor noise.
  Cube cube(shape);
  double gain = rng.uniform(0.4, 0.8);
  double offset = rng.uniform(0.05, 0.15);
  for (int z = 0; z < shape.bands; ++z) {
    gain = std::clamp(gain * rng.uniform(0.95, 1.05), 0.2, 0.9);
    offset = std::clamp(offset + rng.uniform(-0.02, 0.02), 0.0, 0.3);
    for (int y = 0; y < shape.height; ++y) {
      for (int x = 0; x < shape.width; ++x) {
        const double level =
            offset + gain * basis[static_cast<std::size_t>(y) * shape.width + x];
        const int noise = static_cast<int>(rng.below(5)) - 2;
        const int value =
            static_cast<int>(std::llround(level * maxval)) + noise;
        cube.at(z, y, x) = static_cast<std::uint16_t>(std::clamp(value, 0, maxval));
      }
    }
  }
  return cube;
}

Encoder::Encoder(CubeShape shape, CubeShape declared, const HsCodecOptions& options,
                 trace::Recorder* recorder)
    : recorder_(recorder),
      shape_(shape),
      declared_(fill_declared(declared, shape)),
      profile_options_((check_options(options), options)),
      // Bitwidths derive from the coder options: samples and mapped
      // residuals span the dynamic range; the Rice accumulator/counter are
      // sized for their overflow-free maxima at the rescale threshold.  Only
      // the arrays the selected backend touches register with the recorder —
      // the model prices the coder state the design point would really build.
      cube_(recorder, "cube", shape.samples(), options.dynamic_range_bits, 0,
            declared_.samples()),
      residual_(recorder, "residual", shape.plane_samples(),
                options.dynamic_range_bits, 0, declared_.plane_samples()),
      rice_accum_(options.backend != entropy::Backend::kRans ? recorder : nullptr,
                  "rice_accum", static_cast<std::size_t>(shape.bands),
                  options.dynamic_range_bits +
                      std::bit_width(static_cast<unsigned>(options.rescale_limit - 1)),
                  0, static_cast<std::uint64_t>(declared_.bands)),
      rice_count_(options.backend != entropy::Backend::kRans ? recorder : nullptr,
                  "rice_count", static_cast<std::size_t>(shape.bands),
                  std::bit_width(static_cast<unsigned>(options.rescale_limit)), 0,
                  static_cast<std::uint64_t>(declared_.bands)),
      // The rANS tables do double duty (histogram counts, then normalized
      // frequencies), so the frequency array is sized for the histogram's
      // worst case at the declared plane (up to three symbols per sample).
      rans_freq_(options.backend == entropy::Backend::kRans ? recorder : nullptr,
                 "rans_freq", entropy::kRansSymbols,
                 std::max<int>(entropy::kRansFreqBits,
                               std::bit_width(3 * declared_.plane_samples()))),
      rans_cum_(options.backend == entropy::Backend::kRans ? recorder : nullptr,
                "rans_cum", entropy::kRansSymbols + 1, entropy::kRansFreqBits),
      rans_state_(options.backend == entropy::Backend::kRans ? recorder : nullptr,
                  "rans_state", 2, 32),
      bit_accum_(recorder, "bit_accum", 4, 20),
      out_buf_(recorder, "out_buf", 4096, 16) {
  if (recorder == nullptr) return;
  // The cube is the data-reuse candidate: row-buffer windows scale with the
  // declared width, band-plane windows with the declared plane — the "keep
  // the previous band on chip" hierarchy option is the hyperspectral analogue
  // of BTPC's line buffers.
  // Register-file-sized windows are geometry-independent; row and plane
  // windows scale with the declared geometry so "one row" / "one band" keep
  // their meaning at the design point (on narrow profile cubes the recorder
  // drops rungs that would simulate fewer words than a register window).
  const auto row = static_cast<std::uint64_t>(shape_.width);
  const auto declared_row = static_cast<std::uint64_t>(declared_.width);
  const std::uint64_t plane = shape_.plane_samples();
  const std::uint64_t declared_plane = declared_.plane_samples();
  recorder->set_reuse_windows(cube_.id(), {{4, 4},
                                           {12, 12},
                                           {row, declared_row},
                                           {4 * row, 4 * declared_row},
                                           {plane, declared_plane},
                                           {2 * plane, 2 * declared_plane}});
}

void Encoder::predict_band(int z, int maxval) {
  const int width = shape_.width;
  auto curr = [&](int y, int x) { return cube_sample(z, y, x); };
  auto prev = [&](int y, int x) { return cube_sample(z - 1, y, x); };
  for (int y = 0; y < shape_.height; ++y) {
    for (int x = 0; x < width; ++x) {
      trace::IterationScope scope(recorder_, "hs_predict");
      const int pred = predict_sample(z > 0, curr, prev, y, x, width, maxval);
      const int sample = cube_sample(z, y, x);
      DTSE_CHECK(sample <= maxval, "cube sample exceeds the declared dynamic range");
      const int mapped = map_residual(sample, pred, maxval);
      residual_.write(static_cast<std::size_t>(y) * width + x,
                      static_cast<std::uint16_t>(mapped));
    }
  }
}

void Encoder::encode_band(int z, entropy::BitWriter& writer,
                          const HsCodecOptions& options) {
  const int width = shape_.width;
  const int max_k = options.dynamic_range_bits;
  const bool exp_golomb = options.backend == entropy::Backend::kExpGolomb;
  for (int y = 0; y < shape_.height; ++y) {
    for (int x = 0; x < width; ++x) {
      trace::IterationScope scope(recorder_, "hs_encode");
      const std::uint32_t mapped =
          residual_.read(static_cast<std::size_t>(y) * width + x);
      std::uint32_t accum = rice_accum_.read(static_cast<std::size_t>(z));
      std::uint32_t count = rice_count_.read(static_cast<std::size_t>(z));
      const int k = entropy::rice_k(accum, count, max_k);
      if (exp_golomb) {
        entropy::eg_encode(writer, mapped, k);
      } else {
        entropy::rice_encode(writer, mapped, k, options.unary_limit, raw_bits(options));
      }
      entropy::rice_update(accum, count, mapped, options.rescale_limit);
      rice_accum_.write(static_cast<std::size_t>(z), accum);
      rice_count_.write(static_cast<std::size_t>(z),
                        static_cast<std::uint16_t>(count));
    }
  }
}

void Encoder::encode_band_rans(int z, entropy::BitWriter& writer) {
  const std::size_t plane = static_cast<std::size_t>(shape_.plane_samples());
  (void)z;  // the residual plane already holds band z; rANS keeps no per-band state

  // Histogram pass: expand every residual into its escape symbols and count
  // them in the frequency array (read-modify-write per symbol).
  for (int s = 0; s < entropy::kRansSymbols; ++s) {
    trace::IterationScope scope(recorder_, "hs_rans_hist");
    rans_freq_.write(static_cast<std::size_t>(s), 0);
  }
  auto expand_one = [](std::uint32_t value, std::uint32_t (&symbols)[3]) {
    if (value < static_cast<std::uint32_t>(entropy::kRansEscape)) {
      symbols[0] = value;
      return 1;
    }
    symbols[0] = entropy::kRansEscape;
    symbols[1] = value & 0xFFu;
    symbols[2] = value >> 8;
    return 3;
  };
  for (std::size_t i = 0; i < plane; ++i) {
    trace::IterationScope scope(recorder_, "hs_rans_hist");
    const std::uint32_t mapped = residual_.read(i);
    std::uint32_t symbols[3];
    const int n = expand_one(mapped, symbols);
    for (int j = 0; j < n; ++j) {
      rans_freq_.write(symbols[j], rans_freq_.read(symbols[j]) + 1);
    }
  }

  // Normalization: pull the counts, build the scale-sum table (pure compute,
  // not a background-memory access), and store frequencies and cumulative
  // bases back — the tables the decoder-side hardware would keep on chip.
  std::array<std::uint32_t, entropy::kRansSymbols> counts{};
  for (int s = 0; s < entropy::kRansSymbols; ++s) {
    trace::IterationScope scope(recorder_, "hs_rans_norm");
    counts[static_cast<std::size_t>(s)] = rans_freq_.read(static_cast<std::size_t>(s));
  }
  const entropy::RansTable table = entropy::rans_build_table(counts);
  for (int s = 0; s < entropy::kRansSymbols; ++s) {
    trace::IterationScope scope(recorder_, "hs_rans_norm");
    rans_freq_.write(static_cast<std::size_t>(s),
                     table.freq[static_cast<std::size_t>(s)]);
    rans_cum_.write(static_cast<std::size_t>(s), table.cum[static_cast<std::size_t>(s)]);
  }
  {
    trace::IterationScope scope(recorder_, "hs_rans_norm");
    rans_cum_.write(entropy::kRansSymbols, table.cum[entropy::kRansSymbols]);
  }

  // Serialize the table for the decoder.
  for (int s = 0; s < entropy::kRansSymbols; ++s) {
    trace::IterationScope scope(recorder_, "hs_rans_table");
    writer.put(rans_freq_.read(static_cast<std::size_t>(s)), entropy::kRansFreqBits);
  }

  // Encode pass: rANS is last-in-first-out, so the residual plane is walked
  // BACKWARD (and an escaped value's bytes in reverse emission order); the
  // renormalization words buffer up and are flushed reversed so the decoder
  // reads the block strictly forward.
  rans_state_.write(0, static_cast<std::uint32_t>(entropy::kRansL));
  std::vector<std::uint16_t> emitted;
  for (std::size_t i = plane; i-- > 0;) {
    trace::IterationScope scope(recorder_, "hs_rans_encode");
    const std::uint32_t mapped = residual_.read(i);
    std::uint32_t symbols[3];
    const int n = expand_one(mapped, symbols);
    for (int j = n; j-- > 0;) {
      const std::uint32_t freq = rans_freq_.read(symbols[j]);
      const std::uint32_t cum = rans_cum_.read(symbols[j]);
      std::uint64_t state = rans_state_.read(0);
      entropy::rans_encode_step(state, freq, cum, emitted);
      rans_state_.write(0, static_cast<std::uint32_t>(state));
    }
  }
  {
    trace::IterationScope scope(recorder_, "hs_rans_flush");
    const std::uint64_t state = rans_state_.read(0);
    writer.put(static_cast<std::uint32_t>(state >> 16), 16);
    writer.put(static_cast<std::uint32_t>(state & 0xFFFFu), 16);
  }
  for (auto it = emitted.rbegin(); it != emitted.rend(); ++it) {
    trace::IterationScope scope(recorder_, "hs_rans_flush");
    writer.put(*it, 16);
  }
}

EncodedCube Encoder::encode(const Cube& cube, const HsCodecOptions& options) {
  DTSE_CHECK(cube.shape() == shape_, "cube geometry does not match the encoder");
  check_options(options);
  DTSE_CHECK(recorder_ == nullptr ||
                 (options.dynamic_range_bits == profile_options_.dynamic_range_bits &&
                  options.rescale_limit == profile_options_.rescale_limit &&
                  options.backend == profile_options_.backend),
             "encode options must match the instrumented model's declaration");
  const int maxval = (1 << options.dynamic_range_bits) - 1;

  // Load the input cube (arrival of the samples is not part of the encoder's
  // access profile, like the BTPC frame load).
  cube_.raw() = cube.samples();

  entropy::BitWriter writer;
  writer.attach(&bit_accum_, &out_buf_);

  const bool rans = options.backend == entropy::Backend::kRans;
  for (int z = 0; z < shape_.bands; ++z) {
    if (!rans) {
      trace::IterationScope scope(recorder_, "hs_band_setup");
      rice_accum_.write(static_cast<std::size_t>(z),
                        entropy::kRiceInitCount * entropy::kRiceInitMean);
      rice_count_.write(static_cast<std::size_t>(z), entropy::kRiceInitCount);
    }
    predict_band(z, maxval);
    if (rans) {
      encode_band_rans(z, writer);
    } else {
      encode_band(z, writer, options);
    }
  }

  EncodedCube encoded;
  encoded.shape = shape_;
  encoded.dynamic_range_bits = options.dynamic_range_bits;
  encoded.unary_limit = options.unary_limit;
  encoded.rescale_limit = options.rescale_limit;
  encoded.backend = options.backend;
  encoded.stream = writer.finish();
  return encoded;
}

support::Result<Cube> Decoder::try_decode(const EncodedCube& encoded) {
  // Header validation before the cube allocates.  The coder options travel
  // in the stream, so their ranges are data-reachable here (the same ranges
  // `check_options` enforces as an API contract on the encode side).
  const auto& shape = encoded.shape;
  if (!shape.valid() || shape.bands > kMaxDecodeBands || shape.height > kMaxDecodeEdge ||
      shape.width > kMaxDecodeEdge) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "cube geometry " + std::to_string(shape.bands) + "x" +
            std::to_string(shape.height) + "x" + std::to_string(shape.width) +
            " outside the decode caps");
  }
  if (shape.samples() > kMaxDecodeSamples) {
    return support::Status::error(
        support::StatusCode::kResourceLimit,
        "cube of " + std::to_string(shape.samples()) + " samples exceeds the decode cap");
  }
  if (encoded.dynamic_range_bits < 2 || encoded.dynamic_range_bits > 16) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "dynamic range " + std::to_string(encoded.dynamic_range_bits) +
            " outside [2, 16]");
  }
  if (encoded.unary_limit < 1 || encoded.unary_limit > 24) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "unary limit " + std::to_string(encoded.unary_limit) + " outside [1, 24]");
  }
  if (encoded.rescale_limit < 8 || encoded.rescale_limit > 4096) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "rescale limit " + std::to_string(encoded.rescale_limit) + " outside [8, 4096]");
  }
  if (!entropy::backend_valid(static_cast<std::uint8_t>(encoded.backend)) ||
      encoded.backend == entropy::Backend::kHuffman) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "backend " + std::to_string(static_cast<int>(encoded.backend)) +
            " is not a hyperspectral entropy backend");
  }
  const bool rans = encoded.backend == entropy::Backend::kRans;
  // Minimum stream length: a Rice or Exp-Golomb code costs at least one bit
  // per sample, so a shorter stream is truncated by construction (and the
  // cube allocation stays bounded by the input size).  rANS packs samples
  // below a bit but pays a fixed per-band framing cost (frequency table plus
  // final state), which bounds the stream from below instead.
  const std::uint64_t min_bits =
      rans ? static_cast<std::uint64_t>(shape.bands) * entropy::kRansBlockBits
           : shape.samples();
  if (min_bits > encoded.bits()) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "stream of " + std::to_string(encoded.bits()) + " bits cannot carry " +
            std::to_string(shape.samples()) + " samples",
        encoded.bits());
  }

  HsCodecOptions options;
  options.dynamic_range_bits = encoded.dynamic_range_bits;
  options.unary_limit = encoded.unary_limit;
  options.rescale_limit = encoded.rescale_limit;
  options.backend = encoded.backend;
  const int maxval = (1 << options.dynamic_range_bits) - 1;
  const int max_k = options.dynamic_range_bits;
  const int width = encoded.shape.width;
  const bool exp_golomb = encoded.backend == entropy::Backend::kExpGolomb;
  const int eg_prefix = options.dynamic_range_bits + 1;

  Cube cube(encoded.shape);
  entropy::BitReader reader(encoded.stream);
  std::vector<std::uint32_t> accum(static_cast<std::size_t>(encoded.shape.bands));
  std::vector<std::uint32_t> count(static_cast<std::size_t>(encoded.shape.bands));

  for (int z = 0; z < encoded.shape.bands; ++z) {
    accum[static_cast<std::size_t>(z)] = entropy::kRiceInitCount * entropy::kRiceInitMean;
    count[static_cast<std::size_t>(z)] = entropy::kRiceInitCount;
    // A rANS band is a self-framed block: table, final state, renorm words.
    entropy::RansTable table;
    std::optional<entropy::RansDecoder> rans_decoder;
    if (rans) {
      if (auto status = entropy::rans_read_table(reader, table); !status.ok()) {
        return status;
      }
      rans_decoder.emplace(table);
      if (auto status = rans_decoder->init(reader); !status.ok()) return status;
    }
    auto curr = [&](int y, int x) { return static_cast<int>(cube.at(z, y, x)); };
    auto prev = [&](int y, int x) { return static_cast<int>(cube.at(z - 1, y, x)); };
    for (int y = 0; y < encoded.shape.height; ++y) {
      for (int x = 0; x < width; ++x) {
        std::uint32_t mapped = 0;
        if (rans) {
          const std::uint32_t value = rans_decoder->decode_value(reader);
          // The mapped residual never exceeds maxval on the encode side, so a
          // larger decoded value is the block's corruption tripwire.
          if (value > static_cast<std::uint32_t>(maxval)) {
            return support::Status::error(support::StatusCode::kCorrupt,
                                          "mapped residual outside the codable range",
                                          reader.bits_read());
          }
          mapped = value;
        } else {
          const int k = entropy::rice_k(accum[static_cast<std::size_t>(z)],
                                        count[static_cast<std::size_t>(z)], max_k);
          if (exp_golomb) {
            const std::uint64_t value = entropy::eg_decode(reader, k, eg_prefix);
            // Covers both an over-long prefix (kEgInvalid) and a decoded value
            // no in-range residual could have produced.
            if (value > static_cast<std::uint64_t>(maxval)) {
              return support::Status::error(support::StatusCode::kCorrupt,
                                            "mapped residual outside the codable range",
                                            reader.bits_read());
            }
            mapped = static_cast<std::uint32_t>(value);
          } else {
            mapped = entropy::rice_decode(reader, k, options.unary_limit,
                                          raw_bits(options));
          }
          entropy::rice_update(accum[static_cast<std::size_t>(z)],
                               count[static_cast<std::size_t>(z)], mapped,
                               options.rescale_limit);
        }
        // Prediction sees exactly the samples the encoder saw: decoding is
        // lossless and strictly causal in (band, raster) order.
        const int pred = predict_sample(z > 0, curr, prev, y, x, width, maxval);
        const int sample = pred + unmap_residual(static_cast<int>(mapped), pred, maxval);
        // A reconstructed sample outside [0, maxval] is the stream's built-in
        // corruption tripwire — a data error, not a contract violation.
        if (sample < 0 || sample > maxval) {
          return support::Status::error(support::StatusCode::kCorrupt,
                                        "reconstructed sample outside the declared "
                                        "dynamic range",
                                        reader.bits_read());
        }
        cube.at(z, y, x) = static_cast<std::uint16_t>(sample);
      }
    }
  }
  if (reader.overrun()) {
    return support::Status::error(support::StatusCode::kTruncated,
                                  "bitstream exhausted mid-decode", reader.bits_read());
  }
  return cube;
}

namespace {

// Container versioning: "HSC1" is the legacy Rice-only layout and stays
// byte-identical; "HSC2" inserts one backend byte after the coder options.
constexpr std::uint8_t kHsMagic[3] = {'H', 'S', 'C'};
constexpr std::size_t kHsHeaderBytes = 18;
constexpr std::size_t kHs2HeaderBytes = 19;

}  // namespace

std::vector<std::uint8_t> serialize(const EncodedCube& encoded) {
  DTSE_CHECK(encoded.shape.valid(), "malformed encoded cube");
  DTSE_CHECK(encoded.shape.bands <= 0xFFFF && encoded.shape.height <= 0xFFFF &&
                 encoded.shape.width <= 0xFFFF,
             "cube geometry does not fit the container");
  DTSE_CHECK(encoded.backend != entropy::Backend::kHuffman,
             "the hyperspectral container does not carry the Huffman backend");
  const bool extended = encoded.backend != entropy::Backend::kRice;
  support::ByteWriter out;
  for (const auto byte : kHsMagic) out.u8(byte);
  out.u8(extended ? '2' : '1');
  out.u16(static_cast<std::uint16_t>(encoded.shape.bands));
  out.u16(static_cast<std::uint16_t>(encoded.shape.height));
  out.u16(static_cast<std::uint16_t>(encoded.shape.width));
  out.u8(static_cast<std::uint8_t>(encoded.dynamic_range_bits));
  out.u8(static_cast<std::uint8_t>(encoded.unary_limit));
  out.u16(static_cast<std::uint16_t>(encoded.rescale_limit));
  if (extended) out.u8(static_cast<std::uint8_t>(encoded.backend));
  out.u32(static_cast<std::uint32_t>(encoded.stream.size()));
  for (const auto word : encoded.stream) out.u16(word);
  return out.take();
}

support::Result<EncodedCube> try_deserialize(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHsHeaderBytes) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "container of " + std::to_string(bytes.size()) + " bytes is shorter than the " +
            std::to_string(kHsHeaderBytes) + "-byte header",
        bytes.size() * 8);
  }
  if (!std::equal(std::begin(kHsMagic), std::end(kHsMagic), bytes.begin()) ||
      (bytes[3] != '1' && bytes[3] != '2')) {
    return support::Status::error(support::StatusCode::kMalformedHeader,
                                  "bad container magic (expected \"HSC1\" or \"HSC2\")",
                                  0);
  }
  const bool extended = bytes[3] == '2';
  const std::size_t header_bytes = extended ? kHs2HeaderBytes : kHsHeaderBytes;
  if (bytes.size() < header_bytes) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "container of " + std::to_string(bytes.size()) + " bytes is shorter than the " +
            std::to_string(header_bytes) + "-byte header",
        bytes.size() * 8);
  }
  support::ByteReader in(bytes.data() + 4, bytes.size() - 4);
  EncodedCube encoded;
  encoded.shape.bands = in.u16();
  encoded.shape.height = in.u16();
  encoded.shape.width = in.u16();
  encoded.dynamic_range_bits = in.u8();
  encoded.unary_limit = in.u8();
  encoded.rescale_limit = in.u16();
  if (extended) {
    const std::uint8_t backend = in.u8();
    if (!entropy::backend_valid(backend)) {
      return support::Status::error(
          support::StatusCode::kMalformedHeader,
          "unknown entropy backend " + std::to_string(backend), 14 * 8);
    }
    encoded.backend = static_cast<entropy::Backend>(backend);
  }
  const std::uint32_t declared_words = in.u32();
  const std::size_t actual_words = in.remaining() / 2;
  if (declared_words != actual_words ||
      in.remaining() != static_cast<std::size_t>(declared_words) * 2) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "container declares " + std::to_string(declared_words) + " stream words but " +
            std::to_string(actual_words) + " are present",
        header_bytes * 8);
  }
  encoded.stream.reserve(declared_words);
  for (std::size_t i = 0; i < declared_words; ++i) encoded.stream.push_back(in.u16());
  return encoded;
}

ir::Application profile_hyperspec(const Cube& cube, CubeShape declared,
                                  const HsCodecOptions& options) {
  trace::Recorder recorder("hyperspec");
  Encoder encoder(cube.shape(), declared, options, &recorder);
  (void)encoder.encode(cube, options);
  const CubeShape d = fill_declared(declared, cube.shape());
  const double scale = static_cast<double>(d.samples()) /
                       static_cast<double>(cube.shape().samples());
  return recorder.build(scale);
}

}  // namespace dtse::hyperspec
