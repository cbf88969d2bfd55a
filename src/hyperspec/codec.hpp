// A CCSDS-123-style lossless hyperspectral compressor — the second
// first-class workload of the exploration engine.
//
// Hyperspectral imagers produce a 3-D cube of samples (bands x height x
// width).  Band-to-band correlation dominates, so the predictor for band z
// combines the co-located sample of the previous band with the *difference*
// of causal spatial local sums between the two bands (a neighbour-oriented
// local sum as in CCSDS-123's narrow mode); band 0 falls back to a purely
// spatial predictor.  Mapped prediction residuals are entropy-coded with a
// sample-adaptive Golomb-Rice coder (per-band accumulator/counter pair
// selecting the Rice parameter k, unary-limited with a raw escape), writing
// through the shared `btpc::BitWriter`/`BitReader` bitstream substrate.
//
// The access-pattern family is deliberately different from BTPC's quincunx
// pyramid: band-interleaved 3-D reads (up to nine cube reads per sample,
// split across two adjacent band planes), a per-band residual plane written
// by the predict pass and consumed by the encode pass, and per-band coder
// state updated once per sample.  That stresses the memory allocator with
// plane-sized reuse windows instead of row-buffer-sized ones.
//
// Like the BTPC encoder, all background-memory accesses go through
// `trace::InstrumentedArray`; constructed with a `trace::Recorder` a real
// compression run produces the profiled application model as a side effect.
// Compression is bit-exactly reversible: `Decoder::decode` reproduces the
// input cube sample for sample.
#pragma once

#include <cstdint>
#include <vector>

#include "btpc/bitstream.hpp"
#include "entropy/entropy_coder.hpp"
#include "entropy/rans.hpp"
#include "ir/application.hpp"
#include "support/check.hpp"
#include "support/status.hpp"
#include "trace/instrumented_array.hpp"
#include "trace/recorder.hpp"

namespace dtse::hyperspec {

/// Geometry of a sample cube: `bands` planes of `height` x `width` samples.
struct CubeShape {
  int bands = 0;
  int height = 0;
  int width = 0;

  [[nodiscard]] std::uint64_t samples() const {
    return static_cast<std::uint64_t>(bands) * static_cast<std::uint64_t>(height) *
           static_cast<std::uint64_t>(width);
  }
  [[nodiscard]] std::uint64_t plane_samples() const {
    return static_cast<std::uint64_t>(height) * static_cast<std::uint64_t>(width);
  }
  [[nodiscard]] bool valid() const { return bands > 0 && height > 0 && width > 0; }

  friend bool operator==(const CubeShape&, const CubeShape&) = default;
};

namespace detail {
/// Validates before anything allocates from the (possibly negative and then
/// hugely wrapped) geometry.
inline CubeShape checked_shape(CubeShape shape) {
  DTSE_CHECK(shape.valid(), "cube geometry must be positive");
  return shape;
}
}  // namespace detail

/// A band-sequential sample cube (band index varies slowest).
class Cube {
 public:
  Cube() = default;
  explicit Cube(CubeShape shape, std::uint16_t fill = 0)
      : shape_(detail::checked_shape(shape)), samples_(shape_.samples(), fill) {}

  [[nodiscard]] const CubeShape& shape() const { return shape_; }

  [[nodiscard]] std::uint16_t at(int z, int y, int x) const {
    return samples_[index(z, y, x)];
  }
  std::uint16_t& at(int z, int y, int x) { return samples_[index(z, y, x)]; }

  [[nodiscard]] const std::vector<std::uint16_t>& samples() const { return samples_; }
  std::vector<std::uint16_t>& samples() { return samples_; }

  [[nodiscard]] std::size_t index(int z, int y, int x) const {
    DTSE_DCHECK(z >= 0 && z < shape_.bands && y >= 0 && y < shape_.height && x >= 0 &&
                    x < shape_.width,
                "cube access out of bounds");
    return (static_cast<std::size_t>(z) * shape_.height + y) * shape_.width + x;
  }

  bool operator==(const Cube&) const = default;

 private:
  CubeShape shape_;
  std::vector<std::uint16_t> samples_;
};

/// Deterministically generates a synthetic cube: smooth spatial structure
/// with strong band-to-band correlation (slowly drifting per-band gain and
/// offset) plus mild sensor noise — the statistics the predictor exploits.
[[nodiscard]] Cube make_synthetic_cube(CubeShape shape, std::uint64_t seed,
                                       int dynamic_range_bits = 12);

struct HsCodecOptions {
  /// Sample dynamic range D: samples must lie in [0, 2^D - 1].
  int dynamic_range_bits = 12;
  /// Longest unary quotient before the coder escapes to a raw D-bit value.
  int unary_limit = 16;
  /// Rice state rescale threshold: when the per-band sample counter reaches
  /// this, accumulator and counter are halved (adaptation keeps tracking).
  int rescale_limit = 64;
  /// Entropy backend the mapped residuals travel through.  kRice is the
  /// reference coder (and the only format the legacy "HSC1" container
  /// carries); kExpGolomb reuses the same adaptation state with a different
  /// code, kRans swaps the per-band state arrays for frequency/cumulative
  /// tables — a structurally different on-chip candidate set.  kHuffman is
  /// not offered here: the bank's 64-symbol alphabet cannot cover a 16-bit
  /// residual range without an escape design of its own.
  entropy::Backend backend = entropy::Backend::kRice;
};

/// An encoded cube: self-contained header plus the Rice-coded stream.
struct EncodedCube {
  CubeShape shape;
  int dynamic_range_bits = 12;
  int unary_limit = 16;
  int rescale_limit = 64;
  entropy::Backend backend = entropy::Backend::kRice;
  std::vector<std::uint16_t> stream;

  [[nodiscard]] std::uint64_t bits() const {
    return static_cast<std::uint64_t>(stream.size()) * 16u;
  }
  [[nodiscard]] double bits_per_sample() const {
    const auto n = shape.samples();
    return n > 0 ? static_cast<double>(bits()) / static_cast<double>(n) : 0.0;
  }
};

class Encoder {
 public:
  /// Plain encoder for a fixed cube geometry.
  explicit Encoder(CubeShape shape);

  /// Instrumented encoder.  `declared` gives the product geometry entered
  /// into the application model (profile a small cube, declare the flight
  /// instrument's); a zeroed field means same as the profiled shape.
  /// `options` sizes the model's bitwidths (cube/residual at the dynamic
  /// range, Rice state at its overflow-free width); `encode` must be called
  /// with matching options so the profile describes the run it came from.
  Encoder(trace::Recorder& recorder, CubeShape shape, CubeShape declared = {},
          const HsCodecOptions& options = {});

  /// Compresses `cube` (geometry must match the construction shape).
  [[nodiscard]] EncodedCube encode(const Cube& cube, const HsCodecOptions& options = {});

  [[nodiscard]] const CubeShape& shape() const { return shape_; }

 private:

  /// Delegation target with the declared geometry already normalized (the
  /// bool only disambiguates the overload).
  Encoder(trace::Recorder& recorder, CubeShape shape, CubeShape declared,
          const HsCodecOptions& options, bool);

  void predict_band(int z, int maxval);
  void encode_band(int z, btpc::BitWriter& writer, const HsCodecOptions& options);
  void encode_band_rans(int z, btpc::BitWriter& writer);

  [[nodiscard]] int cube_sample(int z, int y, int x) {
    return cube_.read(
        (static_cast<std::size_t>(z) * shape_.height + y) * shape_.width + x);
  }

  trace::Recorder* recorder_ = nullptr;
  CubeShape shape_;
  HsCodecOptions profile_options_;  ///< options the instrumented model declares

  // The workload's basic groups.
  trace::InstrumentedArray<std::uint16_t> cube_;        ///< input samples
  trace::InstrumentedArray<std::uint16_t> residual_;    ///< mapped residual plane
  trace::InstrumentedArray<std::uint32_t> rice_accum_;  ///< per-band accumulator
  trace::InstrumentedArray<std::uint16_t> rice_count_;  ///< per-band counter
  trace::InstrumentedArray<std::uint32_t> rans_freq_;   ///< histogram, then freq table
  trace::InstrumentedArray<std::uint16_t> rans_cum_;    ///< cumulative table
  trace::InstrumentedArray<std::uint32_t> rans_state_;  ///< coder state mirror
  trace::InstrumentedArray<std::uint32_t> bit_accum_;   ///< bitstream packing state
  trace::InstrumentedArray<std::uint16_t> out_buf_;     ///< output stream ring
};

/// Decode hardening limits: the largest cube `try_decode` will allocate for.
/// Combined with the one-bit-per-sample minimum stream length (a Rice code
/// is at least the 1-bit quotient terminator), a hostile header cannot make
/// the decoder allocate a multi-gigabyte cube from a tiny stream.
inline constexpr int kMaxDecodeBands = 4096;
inline constexpr int kMaxDecodeEdge = 16384;
inline constexpr std::uint64_t kMaxDecodeSamples = std::uint64_t{1} << 26;

/// Decoder; stateless between cubes.
class Decoder {
 public:
  /// Hardened decode for untrusted streams: validates the header (geometry
  /// caps, coder-option ranges, minimum stream length) and decodes with soft
  /// bitstream exhaustion, returning a `Status` on any data error —
  /// including a reconstructed sample outside the declared dynamic range,
  /// the stream's built-in corruption tripwire.  Crash-free, hang-free and
  /// leak-free on arbitrary bytes; the unary loop is bounded by
  /// `unary_limit` and total work by the validated geometry.
  [[nodiscard]] support::Result<Cube> try_decode(const EncodedCube& encoded);

  /// Trusted-stream wrapper over `try_decode`; throws on a data error.
  [[nodiscard]] Cube decode(const EncodedCube& encoded);
};

/// Serialization of the header + stream into bytes (the "HSC1" container).
[[nodiscard]] std::vector<std::uint8_t> serialize(const EncodedCube& encoded);
/// Hardened container parse for untrusted bytes; `Status` on any mismatch.
[[nodiscard]] support::Result<EncodedCube> try_deserialize(
    const std::vector<std::uint8_t>& bytes);
/// Trusted-bytes wrapper over `try_deserialize`; throws on a data error.
[[nodiscard]] EncodedCube deserialize(const std::vector<std::uint8_t>& bytes);

/// Convenience: profile one full encode of `cube` and return the pruned
/// application model, declared at `declared` geometry and extrapolated by
/// the sample-count ratio.
[[nodiscard]] ir::Application profile_hyperspec(const Cube& cube, CubeShape declared,
                                                const HsCodecOptions& options = {});

}  // namespace dtse::hyperspec
