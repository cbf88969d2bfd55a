#include "btpc/codec.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "btpc/predictor.hpp"
#include "entropy/exp_golomb.hpp"
#include "entropy/golomb_rice.hpp"
#include "support/check.hpp"

#if DTSE_SIMD_SSE2
#include <immintrin.h>
#endif

namespace dtse::btpc {

using entropy::AdaptiveHuffmanBank;
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

/// Strip height for the tiled traversal: a strip's image (2 B), pyr (1 B)
/// and ridge (1 B) rows should together sit inside ~256 KiB so the encode
/// half of a fused strip finds the predict half's writes still resident.
int effective_tile_rows(const CodecOptions& options, int width, int height) {
  if (options.tile_rows > 0) return options.tile_rows;
  const int budget_rows = static_cast<int>((256 * 1024) / (static_cast<long>(width) * 4));
  return std::clamp(budget_rows, 16, std::max(16, height));
}

#if DTSE_SIMD_SSE2
/// The neighbour/context rows feeding one scale-0 predict row: at scale 0
/// all four parents and both causal context samples sit on the rows
/// y-2 .. y+1, so a row kernel needs exactly these four base pointers.
struct BtpcRows {
  const std::uint16_t* row;     ///< y: west2 and the actual sample (and the
                                ///<    axial west/east parents)
  const std::uint16_t* north;   ///< y-1: diagonal parents / axial north
  const std::uint16_t* south;   ///< y+1: diagonal parents / axial south
  const std::uint16_t* north2;  ///< y-2: causal refinement context
  bool square;                  ///< phase: diagonal vs axial parents
};

/// Gathers 8 lattice samples at stride 2 starting at p (reads p[0..15]).
/// Samples are <= 255, so the masked dwords pack without saturation.
inline __m128i btpc_gather2_sse2(const std::uint16_t* p) {
  const __m128i mask = _mm_set1_epi32(0xFFFF);
  const __m128i a =
      _mm_and_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), mask);
  const __m128i b = _mm_and_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 8)), mask);
  return _mm_packs_epi32(a, b);
}

/// Exact lane-parallel v / 3: (v * 43691) >> 17 for 0 <= v <= 766 (43691 =
/// (2^17 + 1) / 3; the error term v / (3 * 2^17) never crosses the floor).
inline __m128i btpc_div3_sse2(__m128i v) {
  return _mm_srli_epi16(
      _mm_mulhi_epu16(v, _mm_set1_epi16(static_cast<short>(0xAAAB))), 1);
}

inline __m128i btpc_sel_sse2(__m128i mask, __m128i a, __m128i b) {
  return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
}

/// Predicts the 8 scale-0 detail points x = xb, xb+2, ..., xb+14 of one row:
/// per lane the folded residual and the refined pixel class, mirroring
/// predict_from_neighbours + refine_class comparator for comparator.
/// Requires xb >= 2 and xb + 16 <= width - 1 (every gather stays in-row).
void btpc_predict_block_sse2(const BtpcRows& r, int xb, std::uint16_t* folded,
                             std::uint16_t* cls) {
  __m128i n0, n1, n2, n3;
  if (r.square) {
    n0 = btpc_gather2_sse2(r.north + xb - 1);
    n1 = btpc_gather2_sse2(r.north + xb + 1);
    n2 = btpc_gather2_sse2(r.south + xb - 1);
    n3 = btpc_gather2_sse2(r.south + xb + 1);
  } else {
    n0 = btpc_gather2_sse2(r.row + xb - 1);
    n1 = btpc_gather2_sse2(r.row + xb + 1);
    n2 = btpc_gather2_sse2(r.north + xb);
    n3 = btpc_gather2_sse2(r.south + xb);
  }
  // The 5-comparator sorting network as lane-parallel min/max.
  const __m128i s0 = _mm_min_epi16(n0, n1);
  const __m128i s1 = _mm_max_epi16(n0, n1);
  const __m128i s2 = _mm_min_epi16(n2, n3);
  const __m128i s3 = _mm_max_epi16(n2, n3);
  const __m128i t0 = _mm_min_epi16(s0, s2);
  const __m128i t2 = _mm_max_epi16(s0, s2);
  const __m128i t1 = _mm_min_epi16(s1, s3);
  const __m128i t3 = _mm_max_epi16(s1, s3);
  const __m128i u1 = _mm_min_epi16(t1, t2);
  const __m128i u2 = _mm_max_epi16(t1, t2);
  // Sorted: t0 <= u1 <= u2 <= t3.
  const __m128i range = _mm_sub_epi16(t3, t0);
  const __m128i low_gap = _mm_sub_epi16(u1, t0);
  const __m128i high_gap = _mm_sub_epi16(t3, u2);
  const __m128i core = _mm_sub_epi16(u2, u1);
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi16(1);
  const __m128i eight = _mm_set1_epi16(8);

  const __m128i m_smooth = _mm_cmplt_epi16(range, _mm_set1_epi16(3));
  const __m128i m_rhigh = _mm_cmpgt_epi16(
      high_gap, _mm_add_epi16(core, _mm_add_epi16(low_gap, eight)));
  const __m128i m_rlow = _mm_cmpgt_epi16(
      low_gap, _mm_add_epi16(core, _mm_add_epi16(high_gap, eight)));
  const __m128i m_edge =
      _mm_and_si128(_mm_cmpgt_epi16(range, _mm_set1_epi16(32)),
                    _mm_cmpgt_epi16(core, _mm_add_epi16(low_gap, high_gap)));

  const __m128i mid_sum = _mm_add_epi16(u1, u2);
  const __m128i v_smooth = _mm_srli_epi16(
      _mm_add_epi16(_mm_add_epi16(_mm_add_epi16(t0, t3), mid_sum),
                    _mm_set1_epi16(2)),
      2);
  const __m128i v_rhigh = btpc_div3_sse2(_mm_add_epi16(_mm_add_epi16(t0, mid_sum), one));
  const __m128i v_rlow = btpc_div3_sse2(_mm_add_epi16(_mm_add_epi16(mid_sum, t3), one));
  const __m128i v_mid = _mm_srli_epi16(_mm_add_epi16(mid_sum, one), 1);

  // Value and class cascade in reverse priority order; the scalar branches
  // are mutually exclusive, so only the ordering of smooth matters.
  __m128i value = v_mid;
  value = btpc_sel_sse2(m_rlow, v_rlow, value);
  value = btpc_sel_sse2(m_rhigh, v_rhigh, value);
  value = btpc_sel_sse2(m_smooth, v_smooth, value);

  const __m128i k_textured = _mm_set1_epi16(static_cast<int>(PixelClass::kTextured));
  const __m128i k_ridge = _mm_set1_epi16(static_cast<int>(PixelClass::kRidge));
  __m128i cls_v = k_textured;
  cls_v = btpc_sel_sse2(
      m_edge, _mm_set1_epi16(static_cast<int>(PixelClass::kEdge)), cls_v);
  cls_v = btpc_sel_sse2(m_rlow, k_ridge, cls_v);
  cls_v = btpc_sel_sse2(m_rhigh, k_ridge, cls_v);

  // refine_class on the smooth lanes: causal west2/north2 activity.
  const __m128i west2 = btpc_gather2_sse2(r.row + xb - 2);
  const __m128i north2 = btpc_gather2_sse2(r.north2 + xb);
  const __m128i dw = _mm_sub_epi16(west2, value);
  const __m128i dn = _mm_sub_epi16(north2, value);
  const __m128i act = _mm_add_epi16(_mm_max_epi16(dw, _mm_sub_epi16(zero, dw)),
                                    _mm_max_epi16(dn, _mm_sub_epi16(zero, dn)));
  const __m128i smooth_cls = btpc_sel_sse2(
      _mm_cmpgt_epi16(act, _mm_set1_epi16(24)), k_textured,
      _mm_set1_epi16(static_cast<int>(PixelClass::kSmooth)));
  cls_v = btpc_sel_sse2(m_smooth, smooth_cls, cls_v);

  // Fold the lossless residual: 2|e| for e >= 0, 2|e| - 1 for e < 0 (the
  // compare mask is the all-ones -1).
  const __m128i actual = btpc_gather2_sse2(r.row + xb);
  const __m128i e = _mm_sub_epi16(actual, value);
  const __m128i abs_e = _mm_max_epi16(e, _mm_sub_epi16(zero, e));
  const __m128i neg = _mm_cmplt_epi16(e, zero);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded),
                   _mm_add_epi16(_mm_slli_epi16(abs_e, 1), neg));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(cls), cls_v);
}
#endif  // DTSE_SIMD_SSE2

#if DTSE_SIMD_AVX2
/// 16-lane stride-2 gather (reads p[0..31]); the qword permute undoes the
/// per-128-bit-lane interleave of the dword pack.
DTSE_TARGET_AVX2 inline __m256i btpc_gather2_avx2(const std::uint16_t* p) {
  const __m256i mask = _mm256_set1_epi32(0xFFFF);
  const __m256i a = _mm256_and_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), mask);
  const __m256i b = _mm256_and_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 16)), mask);
  return _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b), 0xD8);
}

DTSE_TARGET_AVX2 inline __m256i btpc_div3_avx2(__m256i v) {
  return _mm256_srli_epi16(
      _mm256_mulhi_epu16(v, _mm256_set1_epi16(static_cast<short>(0xAAAB))), 1);
}

/// 16-lane AVX2 twin of btpc_predict_block_sse2 (identical arithmetic).
/// Requires xb >= 2 and xb + 32 <= width - 1.
DTSE_TARGET_AVX2
void btpc_predict_block_avx2(const BtpcRows& r, int xb, std::uint16_t* folded,
                             std::uint16_t* cls) {
  __m256i n0, n1, n2, n3;
  if (r.square) {
    n0 = btpc_gather2_avx2(r.north + xb - 1);
    n1 = btpc_gather2_avx2(r.north + xb + 1);
    n2 = btpc_gather2_avx2(r.south + xb - 1);
    n3 = btpc_gather2_avx2(r.south + xb + 1);
  } else {
    n0 = btpc_gather2_avx2(r.row + xb - 1);
    n1 = btpc_gather2_avx2(r.row + xb + 1);
    n2 = btpc_gather2_avx2(r.north + xb);
    n3 = btpc_gather2_avx2(r.south + xb);
  }
  const __m256i s0 = _mm256_min_epi16(n0, n1);
  const __m256i s1 = _mm256_max_epi16(n0, n1);
  const __m256i s2 = _mm256_min_epi16(n2, n3);
  const __m256i s3 = _mm256_max_epi16(n2, n3);
  const __m256i t0 = _mm256_min_epi16(s0, s2);
  const __m256i t2 = _mm256_max_epi16(s0, s2);
  const __m256i t1 = _mm256_min_epi16(s1, s3);
  const __m256i t3 = _mm256_max_epi16(s1, s3);
  const __m256i u1 = _mm256_min_epi16(t1, t2);
  const __m256i u2 = _mm256_max_epi16(t1, t2);
  const __m256i range = _mm256_sub_epi16(t3, t0);
  const __m256i low_gap = _mm256_sub_epi16(u1, t0);
  const __m256i high_gap = _mm256_sub_epi16(t3, u2);
  const __m256i core = _mm256_sub_epi16(u2, u1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi16(1);
  const __m256i eight = _mm256_set1_epi16(8);

  const __m256i m_smooth = _mm256_cmpgt_epi16(_mm256_set1_epi16(3), range);
  const __m256i m_rhigh = _mm256_cmpgt_epi16(
      high_gap, _mm256_add_epi16(core, _mm256_add_epi16(low_gap, eight)));
  const __m256i m_rlow = _mm256_cmpgt_epi16(
      low_gap, _mm256_add_epi16(core, _mm256_add_epi16(high_gap, eight)));
  const __m256i m_edge = _mm256_and_si256(
      _mm256_cmpgt_epi16(range, _mm256_set1_epi16(32)),
      _mm256_cmpgt_epi16(core, _mm256_add_epi16(low_gap, high_gap)));

  const __m256i mid_sum = _mm256_add_epi16(u1, u2);
  const __m256i v_smooth = _mm256_srli_epi16(
      _mm256_add_epi16(_mm256_add_epi16(_mm256_add_epi16(t0, t3), mid_sum),
                       _mm256_set1_epi16(2)),
      2);
  const __m256i v_rhigh =
      btpc_div3_avx2(_mm256_add_epi16(_mm256_add_epi16(t0, mid_sum), one));
  const __m256i v_rlow =
      btpc_div3_avx2(_mm256_add_epi16(_mm256_add_epi16(mid_sum, t3), one));
  const __m256i v_mid = _mm256_srli_epi16(_mm256_add_epi16(mid_sum, one), 1);

  __m256i value = v_mid;
  value = _mm256_blendv_epi8(value, v_rlow, m_rlow);
  value = _mm256_blendv_epi8(value, v_rhigh, m_rhigh);
  value = _mm256_blendv_epi8(value, v_smooth, m_smooth);

  const __m256i k_textured =
      _mm256_set1_epi16(static_cast<int>(PixelClass::kTextured));
  const __m256i k_ridge = _mm256_set1_epi16(static_cast<int>(PixelClass::kRidge));
  __m256i cls_v = k_textured;
  cls_v = _mm256_blendv_epi8(
      cls_v, _mm256_set1_epi16(static_cast<int>(PixelClass::kEdge)), m_edge);
  cls_v = _mm256_blendv_epi8(cls_v, k_ridge, m_rlow);
  cls_v = _mm256_blendv_epi8(cls_v, k_ridge, m_rhigh);

  const __m256i west2 = btpc_gather2_avx2(r.row + xb - 2);
  const __m256i north2 = btpc_gather2_avx2(r.north2 + xb);
  const __m256i act =
      _mm256_add_epi16(_mm256_abs_epi16(_mm256_sub_epi16(west2, value)),
                       _mm256_abs_epi16(_mm256_sub_epi16(north2, value)));
  const __m256i smooth_cls = _mm256_blendv_epi8(
      _mm256_set1_epi16(static_cast<int>(PixelClass::kSmooth)), k_textured,
      _mm256_cmpgt_epi16(act, _mm256_set1_epi16(24)));
  cls_v = _mm256_blendv_epi8(cls_v, smooth_cls, m_smooth);

  const __m256i actual = btpc_gather2_avx2(r.row + xb);
  const __m256i e = _mm256_sub_epi16(actual, value);
  const __m256i abs_e = _mm256_abs_epi16(e);
  const __m256i neg = _mm256_cmpgt_epi16(zero, e);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(folded),
                      _mm256_add_epi16(_mm256_slli_epi16(abs_e, 1), neg));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(cls), cls_v);
}
#endif  // DTSE_SIMD_AVX2

}  // namespace

Encoder::Encoder(int width, int height)
    : width_(width),
      height_(height),
      image_("image", width, height),
      pyr_("pyr", width, height),
      ridge_("ridge", width, height),
      huffman_(),
      res_accum_("res_accum", kResContexts),
      res_count_("res_count", kResContexts),
      esc_fifo_("esc_fifo", 512),
      coder_select_("coder_select", 8),
      pred_ctx_("pred_ctx", 16),
      quant_tab_("quant_tab", 256),
      dequant_tab_("dequant_tab", 256),
      level_offsets_("level_offsets", 32),
      stats_hist_("stats_hist", 64),
      out_buf_("out_buf", 4096),
      bit_accum_("bit_accum", 4),
      base_buf_("base_buf", 16) {
  DTSE_CHECK(width > 0 && height > 0, "frame dimensions must be positive");
}

Encoder::Encoder(trace::Recorder& recorder, int width, int height, int declared_width,
                 int declared_height, const CodecOptions& options)
    : recorder_(&recorder),
      width_(width),
      height_(height),
      profile_backend_(options.backend),
      image_(recorder, "image", width, height, 8, 0,
             static_cast<std::uint64_t>(declared_width ? declared_width : width) *
                 static_cast<std::uint64_t>(declared_height ? declared_height : height)),
      pyr_(recorder, "pyr", width, height, 8, 0,
           static_cast<std::uint64_t>(declared_width ? declared_width : width) *
               static_cast<std::uint64_t>(declared_height ? declared_height : height)),
      ridge_(recorder, "ridge", width, height, 2, 0,
             static_cast<std::uint64_t>(declared_width ? declared_width : width) *
                 static_cast<std::uint64_t>(declared_height ? declared_height : height)),
      // Only the selected backend's coder state enters the model: every
      // registered array becomes a priced basic group, so an untouched
      // Huffman tree (or Rice state) would distort the exploration.
      huffman_(options.backend == entropy::Backend::kHuffman
                   ? entropy::AdaptiveHuffmanBank(recorder)
                   : entropy::AdaptiveHuffmanBank()),
      res_accum_(options.backend == entropy::Backend::kHuffman
                     ? trace::InstrumentedArray<std::uint32_t>("res_accum", kResContexts)
                     : trace::InstrumentedArray<std::uint32_t>(recorder, "res_accum",
                                                               kResContexts, 15)),
      res_count_(options.backend == entropy::Backend::kHuffman
                     ? trace::InstrumentedArray<std::uint16_t>("res_count", kResContexts)
                     : trace::InstrumentedArray<std::uint16_t>(recorder, "res_count",
                                                               kResContexts, 7)),
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
  // The image array is the prime data-reuse candidate (Section 4.4); the
  // windows bracket the paper's 12-register ylocal and 5K yhier layers.
  // Small windows are geometry-independent; row-buffer-sized windows scale
  // with the frame width so a "5 row" window means 5 rows both on the
  // profiled frame and at the declared design geometry.
  const std::uint64_t dw = static_cast<std::uint64_t>(declared_width ? declared_width : width);
  const auto row = static_cast<std::uint64_t>(width);
  std::vector<trace::Recorder::WindowSpec> windows = {
      {4, 4}, {12, 12}, {64, 64}, {256, 256}};
  for (const double rows : {1.0, 2.5, 5.0, 16.0}) {
    windows.push_back({static_cast<std::uint64_t>(rows * static_cast<double>(row)),
                       static_cast<std::uint64_t>(rows * static_cast<double>(dw))});
  }
  recorder.set_reuse_windows(image_.flat().id(), std::move(windows));
}

void Encoder::init_tables(const CodecOptions& options) {
  // Initialization is pruned from the profile (outside Iteration scopes the
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
                        static_cast<std::uint8_t>(select_coder(static_cast<PixelClass>(cls), 0)));
    coder_select_.write(static_cast<std::size_t>(cls + 4),
                        static_cast<std::uint8_t>(select_coder(static_cast<PixelClass>(cls), 1)));
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
#if DTSE_SIMD_SSE2
  // The vector twin covers the lossless scale-0 strips (the bulk of the
  // detail points); lossy mode keeps the scalar loop — its in-loop
  // reconstruction writes back into image_, a loop-carried dependency the
  // lattice row kernel cannot honour.  Instrumented runs always take the
  // scalar sequence so the recorded profile is dispatch-invariant.
  if (recorder_ == nullptr && simd_ != support::SimdMode::kScalar &&
      !options.lossy && level.scale == 0) {
    predict_pass_simd(level, options, y_begin, y_end);
    return;
  }
#endif
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

#if DTSE_SIMD_SSE2
void Encoder::predict_pass_simd(const LevelSpec& level, const CodecOptions& options,
                                int y_begin, int y_end) {
  // Preconditions (checked by the caller): scale 0, lossless, uninstrumented.
  // Row/point enumeration mirrors visit_detail_points_in_rows exactly — the
  // escape FIFO and value deque fill in raster order, which the encode pass
  // replays.
  const int w = width_;
  const int h = height_;
  const std::uint16_t* img = image_.flat().raw().data();
  const bool square = level.phase == Phase::kSquare;
  const int y_stop = std::min(y_end, h);

  alignas(32) std::uint16_t folded[16];
  alignas(32) std::uint16_t cls[16];

  const auto process_row = [&](int y, int x_start) {
    // Rows without a full causal context (y-2 .. y+1 in range) stay scalar,
    // as do the left/right edges (reflected parents, west2/north2 fallback)
    // and the lane tail of every row.
    const bool row_ok = y >= (square ? 3 : 2) && y + 1 < h;
    int x = x_start;
    if (row_ok) {
      const std::size_t base = static_cast<std::size_t>(y) * w;
      const BtpcRows rows{img + base, img + base - w, img + base + w,
                          img + base - 2 * static_cast<std::size_t>(w), square};
      // The west2 context needs x >= 2: at most one scalar prologue point.
      for (; x < std::min(x_start + 2, w); x += 2) {
        predict_point(Point{x, y}, level, options);
      }
#if DTSE_SIMD_AVX2
      if (simd_ == support::SimdMode::kAvx2) {
        for (; x + 32 <= w - 1; x += 32) {
          btpc_predict_block_avx2(rows, x, folded, cls);
          for (int i = 0; i < 16; ++i) {
            finalize_point(Point{x + 2 * i, y}, folded[i], cls[i]);
          }
        }
      }
#endif
      for (; x + 16 <= w - 1; x += 16) {
        btpc_predict_block_sse2(rows, x, folded, cls);
        for (int i = 0; i < 8; ++i) {
          finalize_point(Point{x + 2 * i, y}, folded[i], cls[i]);
        }
      }
    }
    for (; x < w; x += 2) predict_point(Point{x, y}, level, options);
  };

  if (square) {
    // Odd rows: y = 1, 3, 5, ... aligned up into [y_begin, y_end).
    int y = 1;
    if (y_begin > 1) y = 1 + (y_begin - 1 + 1) / 2 * 2;
    for (; y < y_stop; y += 2) process_row(y, 1);
  } else {
    // Every row; the x parity follows the quincunx coordinate-sum rule.
    for (int y = std::max(y_begin, 0); y < y_stop; ++y) {
      process_row(y, ((y & 1) != 0) ? 0 : 1);
    }
  }
}
#endif  // DTSE_SIMD_SSE2

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
  DTSE_CHECK(!options.lossy || (options.quantizer_delta >= 1 && options.quantizer_delta <= 64),
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
  simd_ = support::resolve_simd_mode(options.simd);

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
    if (options.traversal == Traversal::kLevelOrder) {
      predict_pass(levels[li], options, 0, height_);
      encode_pass(levels[li], options.backend, writer, 0, height_);
    } else {
      // Strip fusion: a point's encode only needs its own predict (pyr,
      // ridge, and the escape FIFO, which both halves walk in the same
      // raster order), and a point's predict only reads values fixed before
      // its strip begins — parents on coarser lattices plus, in lossy mode,
      // causal same-level context at lower raster positions.  Interleaving
      // whole strips therefore reproduces the level-order bitstream exactly
      // while the strip's planes stay cache-resident between the halves.
      for (int y0 = 0; y0 < height_; y0 += tile_rows) {
        const int y1 = std::min(y0 + tile_rows, height_);
        predict_pass(levels[li], options, y0, y1);
        encode_pass(levels[li], options.backend, writer, y0, y1);
      }
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

support::Image Decoder::decode(const EncodedImage& encoded) {
  auto result = try_decode(encoded);
  DTSE_CHECK(result.ok(), "decode of a malformed stream: " + result.status().to_string());
  return result.take();
}

std::vector<std::uint8_t> serialize(const EncodedImage& encoded) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(15 + encoded.stream.size() * 2);
  auto put16 = [&](std::uint16_t v) {
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
  };
  // A Huffman stream keeps the legacy "BTPC" framing byte for byte; the
  // roster backends travel in the "BTP2" extension, which inserts one
  // backend byte before the word count.
  const bool extended = encoded.backend != entropy::Backend::kHuffman;
  bytes.push_back('B');
  bytes.push_back('T');
  bytes.push_back('P');
  bytes.push_back(extended ? '2' : 'C');
  put16(static_cast<std::uint16_t>(encoded.width));
  put16(static_cast<std::uint16_t>(encoded.height));
  bytes.push_back(encoded.lossy ? 1 : 0);
  bytes.push_back(static_cast<std::uint8_t>(encoded.quantizer_delta));
  if (extended) bytes.push_back(static_cast<std::uint8_t>(encoded.backend));
  put16(static_cast<std::uint16_t>(encoded.stream.size() >> 16));
  put16(static_cast<std::uint16_t>(encoded.stream.size() & 0xFFFF));
  for (const auto word : encoded.stream) put16(word);
  return bytes;
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
  auto get16 = [&](std::size_t offset) {
    return static_cast<std::uint32_t>((bytes[offset] << 8) | bytes[offset + 1]);
  };
  EncodedImage encoded;
  encoded.width = static_cast<int>(get16(4));
  encoded.height = static_cast<int>(get16(6));
  encoded.lossy = bytes[8] != 0;
  encoded.quantizer_delta = bytes[9];
  if (extended) {
    if (!entropy::backend_valid(bytes[10])) {
      return support::Status::error(
          support::StatusCode::kMalformedHeader,
          "unknown entropy backend " + std::to_string(bytes[10]), 80);
    }
    encoded.backend = static_cast<entropy::Backend>(bytes[10]);
  }
  const std::size_t words_at = extended ? 11 : 10;
  const std::size_t words = (get16(words_at) << 16) | get16(words_at + 2);
  // The declared word count bounds the allocation by the actual input size:
  // a fuzzed length field cannot make the parser reserve past the bytes it
  // was handed.
  if (bytes.size() < header_bytes + words * 2) {
    return support::Status::error(
        support::StatusCode::kTruncated,
        "container declares " + std::to_string(words) + " stream words but carries " +
            std::to_string((bytes.size() - header_bytes) / 2),
        static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  encoded.stream.reserve(words);
  for (std::size_t i = 0; i < words; ++i) {
    encoded.stream.push_back(static_cast<std::uint16_t>(get16(header_bytes + 2 * i)));
  }
  return encoded;
}

EncodedImage deserialize(const std::vector<std::uint8_t>& bytes) {
  auto result = try_deserialize(bytes);
  DTSE_CHECK(result.ok(), "malformed BTPC container: " + result.status().to_string());
  return result.take();
}

ir::Application profile_btpc(const support::Image& image, int declared_width,
                             int declared_height, const CodecOptions& options) {
  trace::Recorder recorder("btpc");
  Encoder encoder(recorder, image.width(), image.height(), declared_width,
                  declared_height, options);
  (void)encoder.encode(image, options);
  const double scale =
      static_cast<double>(declared_width) * static_cast<double>(declared_height) /
      (static_cast<double>(image.width()) * static_cast<double>(image.height()));
  return recorder.build(scale);
}

}  // namespace dtse::btpc
