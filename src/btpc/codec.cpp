#include "btpc/codec.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "btpc/predictor.hpp"
#include "entropy/exp_golomb.hpp"
#include "entropy/golomb_rice.hpp"
#include "support/byte_io.hpp"
#include "support/check.hpp"

namespace dtse::btpc {

using entropy::AdaptiveHuffmanBank;
using entropy::BitReader;
using entropy::BitWriter;
using entropy::fold_residual;
using entropy::unfold_residual;

namespace {

constexpr int kEscapeBits = 9;   ///< raw folded residual after an escape
constexpr int kMaxSymbolBin = AdaptiveHuffmanBank::kEscape - 1;  // 62
constexpr int kMaxFolded = 510;  ///< fold_residual of the widest residual (+-255)

// Rice / Exp-Golomb backend parameters.  The folded residual fits the
// 9-bit escape width, so Rice escapes reuse kEscapeBits raw bits; the
// per-coder adaptation state mirrors the hyperspectral coder's defaults.
constexpr int kResUnaryLimit = 12;
constexpr int kResRescaleLimit = 64;
constexpr int kResMaxK = 9;
constexpr int kResContexts = AdaptiveHuffmanBank::kCoders;
/// Exp-Golomb zero-run bound: a valid 9-bit folded value at order 0 has at
/// most 9 prefix zeros; one of slack keeps the decode loop strict yet safe.
constexpr int kResEgPrefix = 10;

int clamp_sample(int v) { return std::clamp(v, 0, 255); }

/// Strip height of the fused traversal: a strip's image (2 B), pyr (1 B)
/// and ridge (1 B) rows should together sit inside ~256 KiB so the encode
/// half of a fused strip finds the predict half's writes still resident.
int effective_tile_rows(const CodecOptions& options, int width, int height) {
  if (options.tile_rows > 0) return options.tile_rows;
  const int budget_rows = static_cast<int>((256 * 1024) / (static_cast<long>(width) * 4));
  return std::clamp(budget_rows, 16, std::max(16, height));
}

/// Words of a frame at the declared product geometry (0 = as profiled).
std::uint64_t declared_frame_words(int width, int height, int declared_width,
                                   int declared_height) {
  return static_cast<std::uint64_t>(declared_width ? declared_width : width) *
         static_cast<std::uint64_t>(declared_height ? declared_height : height);
}

}  // namespace

Encoder::Encoder(int width, int height, int declared_width, int declared_height,
                 const CodecOptions& options, trace::Recorder* recorder)
    : recorder_(recorder),
      width_(width),
      height_(height),
      profile_backend_(options.backend),
      image_(recorder, "image", width, height, 8, 0,
             declared_frame_words(width, height, declared_width, declared_height)),
      pyr_(recorder, "pyr", width, height, 8, 0,
           declared_frame_words(width, height, declared_width, declared_height)),
      ridge_(recorder, "ridge", width, height, 2, 0,
             declared_frame_words(width, height, declared_width, declared_height)),
      // Only the selected backend's coder state enters the model: every
      // registered array becomes a priced basic group, so an untouched
      // Huffman tree (or Rice state) would distort the exploration.
      huffman_(options.backend == entropy::Backend::kHuffman ? recorder : nullptr),
      res_accum_(options.backend == entropy::Backend::kHuffman ? nullptr : recorder,
                 "res_accum", kResContexts, 15),
      res_count_(options.backend == entropy::Backend::kHuffman ? nullptr : recorder,
                 "res_count", kResContexts, 7),
      esc_fifo_(recorder, "esc_fifo", 512, 9),
      coder_select_(recorder, "coder_select", 8, 3),
      pred_ctx_(recorder, "pred_ctx", 16, 4),
      quant_tab_(recorder, "quant_tab", 256, 8),
      dequant_tab_(recorder, "dequant_tab", 256, 9),
      level_offsets_(recorder, "level_offsets", 32, 20),
      stats_hist_(recorder, "stats_hist", 64, 16),
      out_buf_(recorder, "out_buf", 4096, 16),
      bit_accum_(recorder, "bit_accum", 4, 20),
      base_buf_(recorder, "base_buf", 16, 8) {
  DTSE_CHECK(width > 0 && height > 0, "frame dimensions must be positive");
  DTSE_CHECK(options.backend != entropy::Backend::kRans,
             "the BTPC stream does not support the rANS backend");
  if (recorder == nullptr) return;
  // The image array is the prime data-reuse candidate (Section 4.4); the
  // windows bracket the paper's 12-register ylocal and 5K yhier layers.
  // Small windows are geometry-independent; row-buffer-sized windows scale
  // with the frame width so a "5 row" window means 5 rows both on the
  // profiled frame and at the declared design geometry.
  const std::uint64_t dw =
      static_cast<std::uint64_t>(declared_width ? declared_width : width);
  const auto row = static_cast<std::uint64_t>(width);
  std::vector<trace::Recorder::WindowSpec> windows = {
      {4, 4}, {12, 12}, {64, 64}, {256, 256}};
  for (const double rows : {1.0, 2.5, 5.0, 16.0}) {
    windows.push_back({static_cast<std::uint64_t>(rows * static_cast<double>(row)),
                       static_cast<std::uint64_t>(rows * static_cast<double>(dw))});
  }
  recorder->set_reuse_windows(image_.flat().id(), std::move(windows));
}

void Encoder::init_tables(const CodecOptions& options) {
  // Initialization is pruned from the profile (outside IterationScopes the
  // instrumented arrays record nothing).
  const int delta = options.lossy ? options.quantizer_delta : 1;
  for (int mag = 0; mag < 256; ++mag) {
    quant_tab_.write(static_cast<std::size_t>(mag),
                     static_cast<std::uint8_t>(std::min(255, (mag + delta / 2) / delta)));
  }
  for (int index = 0; index < 256; ++index) {
    dequant_tab_.write(static_cast<std::size_t>(index),
                       static_cast<std::uint16_t>(index * delta));
  }
  for (int cls = 0; cls < 4; ++cls) {
    coder_select_.write(static_cast<std::size_t>(cls),
                        static_cast<std::uint8_t>(
                            select_coder(static_cast<PixelClass>(cls), 0)));
    coder_select_.write(static_cast<std::size_t>(cls + 4),
                        static_cast<std::uint8_t>(
                            select_coder(static_cast<PixelClass>(cls), 1)));
  }
  for (int i = 0; i < 16; ++i) {
    pred_ctx_.write(static_cast<std::size_t>(i), static_cast<std::uint8_t>(i));
  }
  for (std::size_t i = 0; i < stats_hist_.size(); ++i) stats_hist_.write(i, 0);
  for (int c = 0; c < kResContexts; ++c) {
    res_accum_.write(static_cast<std::size_t>(c),
                     entropy::kRiceInitCount * entropy::kRiceInitMean);
    res_count_.write(static_cast<std::size_t>(c), entropy::kRiceInitCount);
  }
  huffman_.reset();
  escape_values_.clear();
  esc_head_ = 0;
  esc_tail_ = 0;
}

void Encoder::predict_pass(const LevelSpec& level, const CodecOptions& options,
                           int y_begin, int y_end) {
  visit_detail_points_in_rows(level, width_, height_, y_begin, y_end,
                              [&](Point p) { predict_point(p, level, options); });
}

void Encoder::predict_point(Point p, const LevelSpec& level,
                            const CodecOptions& options) {
  const int delta = options.quantizer_delta;
  {
    trace::IterationScope scope(recorder_, "predict");

    const auto parents = parent_positions(p, level, width_, height_);
    std::array<int, 4> neighbours{};
    for (std::size_t i = 0; i < parents.size(); ++i) {
      neighbours[i] = image_.read(parents[i].x, parents[i].y);
    }
    // Table-driven classification context (contents are the identity here;
    // a product implementation refines thresholds per pattern).
    const int range = *std::max_element(neighbours.begin(), neighbours.end()) -
                      *std::min_element(neighbours.begin(), neighbours.end());
    (void)pred_ctx_.read(static_cast<std::size_t>(std::min(range >> 4, 15)));

    auto prediction = predict_from_neighbours(neighbours);
    // Causal context at distance 2s on the same lattice (already coded, so
    // the decoder sees the same values); falls back to a parent at borders.
    const int s2 = 2 << level.scale;
    const int wx = p.x - s2 >= 0 ? p.x - s2 : parents[0].x;
    const int wy = p.x - s2 >= 0 ? p.y : parents[0].y;
    const int nx = p.y - s2 >= 0 ? p.x : parents[1].x;
    const int ny = p.y - s2 >= 0 ? p.y - s2 : parents[1].y;
    const int west2 = image_.read(wx, wy);
    const int north2 = image_.read(nx, ny);
    prediction.pixel_class = refine_class(prediction.pixel_class, prediction.value,
                                          west2, north2);

    const int actual = image_.read(p.x, p.y);
    const int error = actual - prediction.value;

    int coded_index = error;
    if (options.lossy) {
      const int mag = std::min(std::abs(error), 255);
      const int index = quant_tab_.read(static_cast<std::size_t>(mag));
      const int recon_mag = dequant_tab_.read(static_cast<std::size_t>(index));
      coded_index = error < 0 ? -index : index;
      const int recon = clamp_sample(prediction.value +
                                     (error < 0 ? -recon_mag : recon_mag));
      image_.write(p.x, p.y, static_cast<std::uint16_t>(recon));
      (void)delta;
    }

    finalize_point(p, fold_residual(coded_index),
                   static_cast<int>(prediction.pixel_class));
  }
}

void Encoder::finalize_point(Point p, int folded, int pixel_class) {
  int symbol = folded;
  if (folded > kMaxSymbolBin) {
    symbol = AdaptiveHuffmanBank::kEscape;
    escape_values_.push_back(folded);
    esc_fifo_.write(esc_head_++ % esc_fifo_.size(), static_cast<std::uint16_t>(folded));
  }
  pyr_.write(p.x, p.y, static_cast<std::uint8_t>(symbol));
  ridge_.write(p.x, p.y, static_cast<std::uint8_t>(pixel_class));

  const auto hist = stats_hist_.read(static_cast<std::size_t>(symbol));
  stats_hist_.write(static_cast<std::size_t>(symbol), (hist + 1) & 0xFFFFu);
}

void Encoder::encode_pass(const LevelSpec& level, entropy::Backend backend,
                          BitWriter& writer, int y_begin, int y_end) {
  visit_detail_points_in_rows(level, width_, height_, y_begin, y_end, [&](Point p) {
    trace::IterationScope scope(recorder_, "encode");

    const int symbol = pyr_.read(p.x, p.y);
    const int cls = ridge_.read(p.x, p.y);
    const int coder = coder_select_.read(
        static_cast<std::size_t>(cls + (level.scale > 0 ? 4 : 0)));
    if (backend == entropy::Backend::kHuffman) {
      // The demonstrator path, byte-for-byte as before the roster existed.
      huffman_.encode(coder, symbol, writer);
      if (symbol == AdaptiveHuffmanBank::kEscape) {
        (void)esc_fifo_.read(esc_tail_++ % esc_fifo_.size());
        DTSE_ASSERT(!escape_values_.empty(), "escape value stream underflow");
        const int folded = escape_values_.front();
        escape_values_.pop_front();
        writer.put(static_cast<std::uint32_t>(folded), kEscapeBits);
      }
      return;
    }
    // Rice / Exp-Golomb code the full folded residual, reconstructed from
    // the pyr symbol (escapes replay the payload the predict pass queued).
    int folded = symbol;
    if (symbol == AdaptiveHuffmanBank::kEscape) {
      (void)esc_fifo_.read(esc_tail_++ % esc_fifo_.size());
      DTSE_ASSERT(!escape_values_.empty(), "escape value stream underflow");
      folded = escape_values_.front();
      escape_values_.pop_front();
    }
    std::uint32_t accum = res_accum_.read(static_cast<std::size_t>(coder));
    std::uint32_t count = res_count_.read(static_cast<std::size_t>(coder));
    const int k = entropy::rice_k(accum, count, kResMaxK);
    if (backend == entropy::Backend::kRice) {
      entropy::rice_encode(writer, static_cast<std::uint32_t>(folded), k,
                           kResUnaryLimit, kEscapeBits);
    } else {
      entropy::eg_encode(writer, static_cast<std::uint32_t>(folded), k);
    }
    entropy::rice_update(accum, count, static_cast<std::uint32_t>(folded),
                         kResRescaleLimit);
    res_accum_.write(static_cast<std::size_t>(coder), accum);
    res_count_.write(static_cast<std::size_t>(coder),
                     static_cast<std::uint16_t>(count));
  });
}

EncodedImage Encoder::encode(const support::Image& image, const CodecOptions& options) {
  DTSE_CHECK(image.width() == width_ && image.height() == height_,
             "frame geometry does not match the encoder");
  DTSE_CHECK(!options.lossy ||
                 (options.quantizer_delta >= 1 && options.quantizer_delta <= 64),
             "quantizer delta out of range");
  DTSE_CHECK(options.backend != entropy::Backend::kRans,
             "the BTPC stream does not support the rANS backend");
  DTSE_CHECK(recorder_ == nullptr || options.backend == profile_backend_,
             "encode backend must match the instrumented model's declaration");

  // Load the input frame (arrival of the frame is not part of the encoder's
  // access profile).
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      image_.flat().raw()[static_cast<std::size_t>(y) * width_ + x] =
          std::min<std::uint16_t>(image.at(x, y), 255);
    }
  }
  init_tables(options);

  BitWriter writer;
  writer.attach(&bit_accum_, &out_buf_);

  // Raw transmission of the top lattice.
  std::size_t base_count = 0;
  visit_top_points(width_, height_, [&](Point p) {
    trace::IterationScope scope(recorder_, "encode_base");
    const auto v = image_.read(p.x, p.y);
    base_buf_.write(base_count++ % base_buf_.size(), v);
    writer.put(v, 8);
  });

  const auto levels = decomposition_levels(width_, height_);
  const int tile_rows = effective_tile_rows(options, width_, height_);
  for (std::size_t li = 0; li < levels.size(); ++li) {
    {
      trace::IterationScope scope(recorder_, "level_setup");
      level_offsets_.write(li % level_offsets_.size(),
                           static_cast<std::uint32_t>(writer.bits_written() >> 4));
    }
    // Strip fusion: a point's encode only needs its own predict (pyr, ridge,
    // and the escape FIFO, which both halves walk in the same raster order),
    // and a point's predict only reads values fixed before its strip begins
    // — parents on coarser lattices plus, in lossy mode, causal same-level
    // context at lower raster positions.  Interleaving whole strips
    // therefore reproduces the level-order bitstream (one strip spanning the
    // frame) exactly while the strip's planes stay cache-resident between
    // the halves.
    for (int y0 = 0; y0 < height_; y0 += tile_rows) {
      const int y1 = std::min(y0 + tile_rows, height_);
      predict_pass(levels[li], options, y0, y1);
      encode_pass(levels[li], options.backend, writer, y0, y1);
    }
  }
  DTSE_ASSERT(escape_values_.empty(), "escape value stream out of balance");

  EncodedImage encoded;
  encoded.width = width_;
  encoded.height = height_;
  encoded.lossy = options.lossy;
  encoded.quantizer_delta = options.lossy ? options.quantizer_delta : 1;
  encoded.backend = options.backend;
  encoded.stream = writer.finish();
  return encoded;
}

support::Result<support::Image> Decoder::try_decode(const EncodedImage& encoded) {
  // Header validation before anything allocates: dimensions within the
  // decode caps, quantizer in the range the encoder can produce, and the
  // stream long enough to plausibly carry the geometry (top-lattice pixels
  // cost 8 bits raw, every detail symbol at least 1 — so a well-formed
  // stream holds at least one bit per pixel).  The bound ties the image
  // allocation to the input size: a tiny stream cannot demand a huge frame.
  if (encoded.width < 1 || encoded.width > kMaxDecodeDim || encoded.height < 1 ||
      encoded.height > kMaxDecodeDim) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "image dimensions " + std::to_string(encoded.width) + "x" +
            std::to_string(encoded.height) + " outside [1, " +
            std::to_string(kMaxDecodeDim) + "]");
  }
  const auto pixels = static_cast<std::uint64_t>(encoded.width) *
                      static_cast<std::uint64_t>(encoded.height);
  if (pixels > kMaxDecodePixels) {
    return support::Status::error(
        support::StatusCode::kResourceLimit,
        "frame of " + std::to_string(pixels) + " pixels exceeds the decode cap");
  }
  if (encoded.lossy &&
      (encoded.quantizer_delta < 1 || encoded.quantizer_delta > 64)) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "quantizer delta " + std::to_string(encoded.quantizer_delta) +
            " outside [1, 64]");
  }
  if (encoded.backend == entropy::Backend::kRans ||
      !entropy::backend_valid(static_cast<std::uint8_t>(encoded.backend))) {
    return support::Status::error(
        support::StatusCode::kMalformedHeader,
        "entropy backend " +
            std::to_string(static_cast<unsigned>(encoded.backend)) +
            " is not supported by the BTPC codec");
  }
  if (pixels > encoded.bits()) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "stream of " + std::to_string(encoded.bits()) + " bits cannot carry " +
            std::to_string(pixels) + " pixels",
        encoded.bits());
  }

  support::Image image(encoded.width, encoded.height);
  BitReader reader(encoded.stream);
  AdaptiveHuffmanBank huffman;
  std::array<std::uint32_t, kResContexts> res_accum{};
  std::array<std::uint32_t, kResContexts> res_count{};
  res_accum.fill(entropy::kRiceInitCount * entropy::kRiceInitMean);
  res_count.fill(entropy::kRiceInitCount);
  bool corrupt_symbol = false;

  visit_top_points(encoded.width, encoded.height, [&](Point p) {
    image.at(p.x, p.y) = static_cast<std::uint16_t>(reader.get(8));
  });

  const int delta = encoded.lossy ? encoded.quantizer_delta : 1;
  for (const auto& level : decomposition_levels(encoded.width, encoded.height)) {
    visit_detail_points(level, encoded.width, encoded.height, [&](Point p) {
      const auto parents = parent_positions(p, level, encoded.width, encoded.height);
      std::array<int, 4> neighbours{};
      for (std::size_t i = 0; i < parents.size(); ++i) {
        neighbours[i] = image.at(parents[i].x, parents[i].y);
      }
      auto prediction = predict_from_neighbours(neighbours);
      const int s2 = 2 << level.scale;
      const int wx = p.x - s2 >= 0 ? p.x - s2 : parents[0].x;
      const int wy = p.x - s2 >= 0 ? p.y : parents[0].y;
      const int nx = p.y - s2 >= 0 ? p.x : parents[1].x;
      const int ny = p.y - s2 >= 0 ? p.y - s2 : parents[1].y;
      prediction.pixel_class =
          refine_class(prediction.pixel_class, prediction.value, image.at(wx, wy),
                       image.at(nx, ny));
      const int coder =
          select_coder(prediction.pixel_class, level.scale > 0 ? 1 : 0);
      int folded = 0;
      if (encoded.backend == entropy::Backend::kHuffman) {
        folded = huffman.decode(coder, reader);
        if (folded == AdaptiveHuffmanBank::kEscape) {
          folded = static_cast<int>(reader.get(kEscapeBits));
        }
      } else {
        auto& accum = res_accum[static_cast<std::size_t>(coder)];
        auto& count = res_count[static_cast<std::size_t>(coder)];
        const int k = entropy::rice_k(accum, count, kResMaxK);
        const std::uint64_t value =
            encoded.backend == entropy::Backend::kRice
                ? entropy::rice_decode(reader, k, kResUnaryLimit, kEscapeBits)
                : entropy::eg_decode(reader, k, kResEgPrefix);
        // A folded residual past the widest possible fold only exists on
        // corrupt bits; poison the walk and report once it finishes.
        if (value > kMaxFolded) {
          corrupt_symbol = true;
          folded = 0;
        } else {
          folded = static_cast<int>(value);
          entropy::rice_update(accum, count, static_cast<std::uint32_t>(value),
                               kResRescaleLimit);
        }
      }
      const int index = unfold_residual(folded);
      const int residual = encoded.lossy ? index * delta : index;
      image.at(p.x, p.y) =
          static_cast<std::uint16_t>(clamp_sample(prediction.value + residual));
    });
  }
  if (corrupt_symbol) {
    return support::Status::error(support::StatusCode::kCorrupt,
                                  "folded residual outside the codable range",
                                  reader.bits_read());
  }
  // The soft reader finished the (bounded) point walk on zeros if the stream
  // ran dry; surface that as the data error it is.
  if (reader.overrun()) {
    return support::Status::error(support::StatusCode::kTruncated,
                                  "bitstream exhausted mid-decode",
                                  reader.bits_read());
  }
  return image;
}

std::vector<std::uint8_t> serialize(const EncodedImage& encoded) {
  // A Huffman stream keeps the legacy "BTPC" framing byte for byte; the
  // roster backends travel in the "BTP2" extension, which inserts one
  // backend byte before the word count.
  const bool extended = encoded.backend != entropy::Backend::kHuffman;
  support::ByteWriter out;
  out.u8('B');
  out.u8('T');
  out.u8('P');
  out.u8(extended ? '2' : 'C');
  out.u16(static_cast<std::uint16_t>(encoded.width));
  out.u16(static_cast<std::uint16_t>(encoded.height));
  out.u8(encoded.lossy ? 1 : 0);
  out.u8(static_cast<std::uint8_t>(encoded.quantizer_delta));
  if (extended) out.u8(static_cast<std::uint8_t>(encoded.backend));
  out.u32(static_cast<std::uint32_t>(encoded.stream.size()));
  for (const auto word : encoded.stream) out.u16(word);
  return out.take();
}

support::Result<EncodedImage> try_deserialize(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 14) {
    return support::Status::error(support::StatusCode::kTruncated,
                                  "container shorter than the 14-byte header",
                                  static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  if (bytes[0] != 'B' || bytes[1] != 'T' || bytes[2] != 'P' ||
      (bytes[3] != 'C' && bytes[3] != '2')) {
    return support::Status::error(support::StatusCode::kMalformedHeader,
                                  "missing BTPC magic", 0);
  }
  const bool extended = bytes[3] == '2';
  const std::size_t header_bytes = extended ? 15 : 14;
  if (bytes.size() < header_bytes) {
    return support::Status::error(support::StatusCode::kTruncated,
                                  "container shorter than the 15-byte BTP2 header",
                                  static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  support::ByteReader in(bytes.data() + 4, bytes.size() - 4);
  EncodedImage encoded;
  encoded.width = in.u16();
  encoded.height = in.u16();
  encoded.lossy = in.u8() != 0;
  encoded.quantizer_delta = in.u8();
  if (extended) {
    const std::uint8_t backend = in.u8();
    if (!entropy::backend_valid(backend)) {
      return support::Status::error(
          support::StatusCode::kMalformedHeader,
          "unknown entropy backend " + std::to_string(backend), 80);
    }
    encoded.backend = static_cast<entropy::Backend>(backend);
  }
  const std::size_t words = in.u32();
  // The declared word count bounds the allocation by the actual input size:
  // a fuzzed length field cannot make the parser reserve past the bytes it
  // was handed.
  if (in.remaining() < words * 2) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "container declares " + std::to_string(words) + " stream words but carries " +
            std::to_string(in.remaining() / 2),
        static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  encoded.stream.reserve(words);
  for (std::size_t i = 0; i < words; ++i) encoded.stream.push_back(in.u16());
  return encoded;
}

ir::Application profile_btpc(const support::Image& image, int declared_width,
                             int declared_height, const CodecOptions& options) {
  trace::Recorder recorder("btpc");
  Encoder encoder(image.width(), image.height(), declared_width, declared_height,
                  options, &recorder);
  (void)encoder.encode(image, options);
  // 0 declares the profiled geometry, as it does for the encoder.
  const int dw = declared_width ? declared_width : image.width();
  const int dh = declared_height ? declared_height : image.height();
  const double scale = static_cast<double>(dw) * static_cast<double>(dh) /
                       (static_cast<double>(image.width()) * image.height());
  return recorder.build(scale);
}

}  // namespace dtse::btpc
