// Bit-level I/O shared by every codec (BTPC, the hyperspectral coder and
// the entropy-coder roster).
//
// Both ends run on 64-bit accumulators: the writer batches incoming codes
// into a 64-bit register and emits 16-bit stream words in bulk once enough
// bits pile up; the reader pulls word-sized chunks so a multi-bit `get`
// crosses word boundaries in one call instead of stepping bit by bit.
//
// The writer can optionally mirror its activity into instrumented arrays
// (`bit_accum` packing state and the `out_buf` stream ring) so that the
// profiled application model sees the output-stage memory traffic of the
// real encoder; the mirror records one accumulator read-modify-write per
// `put` and one ring write per emitted word, exactly as before the 64-bit
// rework.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "trace/instrumented_array.hpp"

namespace dtse::entropy {

class BitWriter {
 public:
  BitWriter() = default;

  /// Attaches instrumentation targets (owned by the encoder).
  void attach(trace::InstrumentedArray<std::uint32_t>* bit_accum,
              trace::InstrumentedArray<std::uint16_t>* out_buf) {
    bit_accum_ = bit_accum;
    out_buf_ = out_buf;
  }

  /// Appends `count` bits (MSB first) of `bits`.
  ///
  /// Width invariant: one `put` carries at most 24 bits (the accumulator
  /// holds < 16 pending bits on entry, so 24 is the largest width that can
  /// never overflow the 64-bit shift; it also covers the widest field any
  /// coder emits).  `BitReader::get` accepts up to 32 bits because a read
  /// may span several writes — the asymmetry is deliberate and round-trip
  /// tested at every width in [1, 24].
  void put(std::uint32_t bits, int count) {
    DTSE_CHECK(count >= 0 && count <= 24, "bit count out of range");
    DTSE_CHECK(count == 24 || bits < (1u << count), "value does not fit in bit count");
    bits_written_ += static_cast<std::uint64_t>(count);
    // A 24-bit put is exempt from the range check (historical contract), so
    // mask to the requested width or stray high bits would OR into stream
    // bits already sitting in the accumulator.
    if (count == 24) bits &= 0x00FF'FFFFu;
    // filled_ < 16 on entry and count <= 24, so the shift never overflows.
    accumulator_ = (accumulator_ << count) | bits;
    filled_ += count;
    while (filled_ >= 16) {
      filled_ -= 16;
      emit_word(static_cast<std::uint16_t>(accumulator_ >> filled_));
    }
    if (bit_accum_ != nullptr && count > 0) {
      // Packing state: read-modify-write of the accumulator register file.
      (void)bit_accum_->read(0);
      bit_accum_->write(0, static_cast<std::uint32_t>(accumulator_));
    }
  }

  /// Pads to a 16-bit boundary and returns the stream.
  [[nodiscard]] std::vector<std::uint16_t> finish() {
    if (filled_ > 0) {
      accumulator_ <<= (16 - filled_);
      filled_ = 0;
      emit_word(static_cast<std::uint16_t>(accumulator_));
    }
    return std::move(words_);
  }

  [[nodiscard]] std::uint64_t bits_written() const { return bits_written_; }

 private:
  void emit_word(std::uint16_t word) {
    if (out_buf_ != nullptr) {
      out_buf_->write(words_.size() % out_buf_->size(), word);
    }
    words_.push_back(word);
  }

  std::vector<std::uint16_t> words_;
  std::uint64_t accumulator_ = 0;  ///< low `filled_` bits are pending output
  int filled_ = 0;
  std::uint64_t bits_written_ = 0;
  trace::InstrumentedArray<std::uint32_t>* bit_accum_ = nullptr;
  trace::InstrumentedArray<std::uint16_t>* out_buf_ = nullptr;
};

/// Reads a 16-bit-word stream MSB first.  Hardened against truncation:
/// exhaustion detection is *always on* (Release included) and branch-cheap —
/// one predictable `bits_read_ + count > total_bits_` compare per `get`
/// replaces the per-word bounds check, so there is no path from a short or
/// bit-flipped stream to an out-of-bounds read.  Running out of bits is a
/// *data* condition, not a contract violation: an exhausted reader returns
/// zero bits, latches `overrun()`, and keeps accepting calls (every
/// subsequent `get` also returns 0), so decode loops finish their bounded
/// work and the hardened decoders turn the latched flag into a clean
/// `Status` instead of throwing mid-pipeline.
///
/// Width invariant with `BitWriter`: the writer emits at most 24 bits per
/// `put`, the reader takes up to 32 per `get` — a multi-`put` field (e.g.
/// two 16-bit halves) may be read back in one call, so the reader's limit is
/// intentionally wider.  Decoders that read a field written by a *single*
/// `put` must ask for <= 24 bits; see the width round-trip test.
class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint16_t>& words)
      : words_(&words), total_bits_(static_cast<std::uint64_t>(words.size()) * 16u) {}

  /// Reads `count` bits (up to 32) MSB first, crossing word boundaries in
  /// one call.  Reading past the end yields 0 and latches `overrun()`.
  [[nodiscard]] std::uint32_t get(int count) {
    DTSE_CHECK(count >= 0 && count <= 32, "bit count out of range");
    if (bits_read_ + static_cast<std::uint64_t>(count) > total_bits_) [[unlikely]] {
      // Truncated input: consume nothing, report zeros from here on.
      overrun_ = true;
      bits_read_ = total_bits_;
      word_pos_ = words_->size();
      bit_pos_ = 0;
      return 0;
    }
    std::uint32_t value = 0;
    int need = count;
    while (need > 0) {
      DTSE_DCHECK(word_pos_ < words_->size(), "bitstream exhausted");
      const int avail = 16 - bit_pos_;
      const int take = need < avail ? need : avail;
      const auto word = (*words_)[word_pos_];
      const auto chunk =
          (static_cast<std::uint32_t>(word) >> (avail - take)) & ((1u << take) - 1u);
      value = (value << take) | chunk;
      bit_pos_ += take;
      if (bit_pos_ == 16) {
        bit_pos_ = 0;
        ++word_pos_;
      }
      need -= take;
    }
    bits_read_ += static_cast<std::uint64_t>(count);
    return value;
  }

  /// Reads one bit.
  [[nodiscard]] int get_bit() { return static_cast<int>(get(1)); }

  [[nodiscard]] std::uint64_t bits_read() const { return bits_read_; }
  /// Bits left before the reader runs dry.
  [[nodiscard]] std::uint64_t bits_left() const { return total_bits_ - bits_read_; }
  /// True once any `get` asked for more bits than the stream held.
  [[nodiscard]] bool overrun() const { return overrun_; }

 private:
  const std::vector<std::uint16_t>* words_;
  std::uint64_t total_bits_;
  std::size_t word_pos_ = 0;
  int bit_pos_ = 0;  // 0 = MSB of current word
  std::uint64_t bits_read_ = 0;
  bool overrun_ = false;
};

}  // namespace dtse::entropy
