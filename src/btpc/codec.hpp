// The BTPC encoder and decoder — Section 3's demonstrator application.
//
// Binary Tree Predictive Coding [Robinson, IEEE TIP 1997]: the image is
// decomposed into a quincunx pyramid; every removed detail pixel is
// predicted from its four known neighbours, the neighbourhood is classified
// (the 2-bit `ridge` array), and the prediction residual (the `pyr` array)
// is entropy-coded with one of six adaptive Huffman coders selected by the
// class and scale.  Lossy operation quantizes the residual and reconstructs
// in-loop so encoder and decoder predictions stay aligned.
//
// The encoder performs all background-memory accesses through instrumented
// arrays; constructed with a trace::Recorder it produces, as a side effect
// of a real compression run, the profiled application model the paper's
// methodology starts from.  Initialization code is deliberately *outside*
// the recording scopes — the paper prunes "loops which hardly contribute to
// the total cycle count".
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "btpc/pyramid.hpp"
#include "entropy/adaptive_huffman.hpp"
#include "entropy/bitstream.hpp"
#include "entropy/entropy_coder.hpp"
#include "support/image.hpp"
#include "support/status.hpp"
#include "trace/instrumented_array.hpp"
#include "trace/recorder.hpp"

namespace dtse::btpc {

struct CodecOptions {
  bool lossy = false;
  int quantizer_delta = 4;  ///< residual quantization step in lossy mode
  /// The encoder predicts then encodes each pyramid level over row strips
  /// of this height (0 = pick from the frame width so a strip's
  /// image/pyr/ridge rows fit in ~256 KiB).  Any height yields the same
  /// bitstream and access profile; `tile_rows >= height` is level order
  /// (one predict pass, then one encode pass over the whole level), the
  /// reference the strip fusion is tested against.
  int tile_rows = 0;
  /// Entropy backend the residual symbols travel through.  kHuffman is the
  /// paper demonstrator (and the only format the legacy "BTPC" container
  /// carries); kRice and kExpGolomb swap the coder-state arrays the
  /// exploration prices.  kRans is not offered here: the BTPC stream
  /// interleaves entropy codes with raw fields level by level, which fights
  /// rANS's reverse-order encoding.
  entropy::Backend backend = entropy::Backend::kHuffman;
};

/// An encoded image: self-contained header plus the entropy-coded stream.
struct EncodedImage {
  int width = 0;
  int height = 0;
  bool lossy = false;
  int quantizer_delta = 1;
  entropy::Backend backend = entropy::Backend::kHuffman;
  std::vector<std::uint16_t> stream;

  [[nodiscard]] std::uint64_t bits() const {
    return static_cast<std::uint64_t>(stream.size()) * 16u;
  }
  [[nodiscard]] double bits_per_pixel() const {
    return width * height > 0 ? static_cast<double>(bits()) / (width * height) : 0.0;
  }
};

class Encoder {
 public:
  /// Encoder for a fixed frame geometry.  With a non-null `recorder` it
  /// profiles what it encodes: `declared_width/height` give the product
  /// geometry entered into the application model (profile a 512x512 frame,
  /// declare the 1024x1024 design point); 0 means same as the frame.
  /// `options.backend` decides which coder-state arrays register with the
  /// recorder (the model only prices arrays the selected backend touches);
  /// `encode` must then be called with the same backend.
  Encoder(int width, int height, int declared_width = 0, int declared_height = 0,
          const CodecOptions& options = {}, trace::Recorder* recorder = nullptr);

  /// Compresses `image` (dimensions must match the construction geometry).
  [[nodiscard]] EncodedImage encode(const support::Image& image,
                                    const CodecOptions& options = {});

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

 private:

  void init_tables(const CodecOptions& options);
  /// Strip-ranged passes: process the level's detail points with y in
  /// [y_begin, y_end).  The full-level passes are the [0, height) case.
  void predict_pass(const LevelSpec& level, const CodecOptions& options, int y_begin,
                    int y_end);
  /// The predict pass body, one detail point.
  void predict_point(Point p, const LevelSpec& level, const CodecOptions& options);
  /// Finalizes one predicted point from its folded residual and class:
  /// escape bookkeeping, pyr/ridge stores, symbol histogram.
  void finalize_point(Point p, int folded, int pixel_class);
  void encode_pass(const LevelSpec& level, entropy::Backend backend,
                   entropy::BitWriter& writer, int y_begin, int y_end);

  trace::Recorder* recorder_ = nullptr;
  int width_;
  int height_;
  entropy::Backend profile_backend_ = entropy::Backend::kHuffman;

  // The demonstrator's basic groups (Section 4.1: 18 important arrays).
  trace::InstrumentedArray2D<std::uint16_t> image_;
  trace::InstrumentedArray2D<std::uint8_t> pyr_;
  trace::InstrumentedArray2D<std::uint8_t> ridge_;
  entropy::AdaptiveHuffmanBank huffman_;
  trace::InstrumentedArray<std::uint32_t> res_accum_;  ///< Rice/EG per-coder state
  trace::InstrumentedArray<std::uint16_t> res_count_;
  trace::InstrumentedArray<std::uint16_t> esc_fifo_;
  trace::InstrumentedArray<std::uint8_t> coder_select_;
  trace::InstrumentedArray<std::uint8_t> pred_ctx_;
  trace::InstrumentedArray<std::uint8_t> quant_tab_;
  trace::InstrumentedArray<std::uint16_t> dequant_tab_;
  trace::InstrumentedArray<std::uint32_t> level_offsets_;
  trace::InstrumentedArray<std::uint32_t> stats_hist_;
  trace::InstrumentedArray<std::uint16_t> out_buf_;
  trace::InstrumentedArray<std::uint32_t> bit_accum_;
  trace::InstrumentedArray<std::uint16_t> base_buf_;

  std::deque<int> escape_values_;  ///< actual payloads behind the esc_fifo ring
  std::size_t esc_head_ = 0;
  std::size_t esc_tail_ = 0;
};

/// Decode hardening limits: the largest geometry `try_decode` will allocate
/// for.  A hostile 16-byte header cannot request a multi-gigabyte image —
/// dimensions are capped, and the stream must carry at least one bit per
/// pixel (raw top-lattice pixels cost 8, detail symbols >= 1), so the
/// allocation is additionally bounded by the input size.
inline constexpr int kMaxDecodeDim = 16384;
inline constexpr std::uint64_t kMaxDecodePixels = std::uint64_t{1} << 26;

/// Decoder; stateless between images.
class Decoder {
 public:
  /// Hardened decode for untrusted streams: validates the header (dimension
  /// and allocation caps, quantizer range, minimum stream length) and runs
  /// the entropy decoder with soft exhaustion, returning a `Status` instead
  /// of throwing on any data error.  Crash-free, hang-free and leak-free on
  /// arbitrary bytes; work is bounded by the validated geometry.
  [[nodiscard]] support::Result<support::Image> try_decode(const EncodedImage& encoded);
};

/// Serialization of the header + stream into bytes (for files).
[[nodiscard]] std::vector<std::uint8_t> serialize(const EncodedImage& encoded);
/// Hardened container parse for untrusted bytes (magic, header ranges,
/// declared-vs-actual length) returning a `Status` on any mismatch.
[[nodiscard]] support::Result<EncodedImage> try_deserialize(
    const std::vector<std::uint8_t>& bytes);

/// Convenience: profile one full encode of `image` and return the pruned
/// application model, declared at `declared_width/height` and extrapolated
/// by the pixel-count ratio.
[[nodiscard]] ir::Application profile_btpc(const support::Image& image,
                                           int declared_width, int declared_height,
                                           const CodecOptions& options = {});

}  // namespace dtse::btpc
