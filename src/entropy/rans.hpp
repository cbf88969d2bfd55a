// Table-driven range ANS (rANS) coding primitives.
//
// A byte-alphabet rANS coder with a 32-bit state and 16-bit renormalization
// words, frequencies normalized to a 12-bit scale.  Values wider than a
// byte ride an escape: value v >= 255 is coded as the ESC symbol followed
// by its low and high bytes, all through the same frequency table, so one
// 256-entry table serves the full 16-bit residual range.
//
// rANS is last-in-first-out: the encoder must process the symbol sequence
// in REVERSE and its renormalization words are consumed by the decoder in
// reverse emission order.  A coded block is therefore framed as
//   [256 x 13-bit frequencies][32-bit final state][renorm words, reversed]
// and the decoder reads it strictly forward.  `rans_encode_step` exposes
// the encoder at step granularity, and the instrumented hyperspec kernel
// writes the table, the final state and the reversed renorm words itself,
// so the frequency/cumulative tables and the coder state live in
// `trace::InstrumentedArray`s — the tables are exactly the kind of on-chip
// array candidate the exploration is meant to price.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "entropy/bitstream.hpp"
#include "support/check.hpp"
#include "support/status.hpp"

namespace dtse::entropy {

inline constexpr int kRansScaleBits = 12;
inline constexpr std::uint32_t kRansScale = 1u << kRansScaleBits;  // 4096
inline constexpr std::uint64_t kRansL = std::uint64_t{1} << 16;    ///< state lower bound
inline constexpr int kRansSymbols = 256;
inline constexpr int kRansEscape = 255;  ///< symbol prefixing a two-byte value
inline constexpr int kRansFreqBits = 13;  ///< a frequency can be the full scale (4096)
/// Fixed per-block framing cost: the serialized table plus the final state.
inline constexpr std::uint64_t kRansBlockBits =
    static_cast<std::uint64_t>(kRansSymbols) * kRansFreqBits + 32;

/// A normalized frequency table: `freq` sums to exactly `kRansScale`,
/// `cum[s]` is the exclusive prefix sum (cum[kRansSymbols] == kRansScale).
struct RansTable {
  std::array<std::uint16_t, kRansSymbols> freq{};
  std::array<std::uint16_t, kRansSymbols + 1> cum{};
};

/// Deterministically normalizes raw symbol counts (at least one nonzero) to
/// a table summing to `kRansScale`; every present symbol keeps freq >= 1.
[[nodiscard]] RansTable rans_build_table(std::span<const std::uint32_t, kRansSymbols> counts);

/// Reads and validates a frequency table: the 256 fields must sum to
/// exactly `kRansScale` or the block is corrupt (`kCorrupt`).
[[nodiscard]] support::Status rans_read_table(BitReader& reader, RansTable& table);

/// Encodes ONE symbol with frequency `freq` and cumulative base `cum`.
/// Symbols must be fed in reverse sequence order; renormalization words
/// append to `emitted` (chronological emission order — the block writer
/// emits them reversed for the decoder).  Contract: `freq >= 1` (a zero
/// frequency cannot encode; the table builder guarantees it for every
/// symbol that occurs).
inline void rans_encode_step(std::uint64_t& state, std::uint32_t freq, std::uint32_t cum,
                             std::vector<std::uint16_t>& emitted) {
  DTSE_DCHECK(freq >= 1 && freq <= kRansScale, "rANS frequency out of range");
  // Renormalize first so the encode step below cannot push the state past
  // 32 bits: emit while state >= (L >> scale_bits) * 2^16 * freq.
  const std::uint64_t state_max = static_cast<std::uint64_t>(freq) << 20;
  while (state >= state_max) {
    emitted.push_back(static_cast<std::uint16_t>(state & 0xFFFFu));
    state >>= 16;
  }
  state = ((state / freq) << kRansScaleBits) + (state % freq) + cum;
}

/// Forward decoder over a validated table.  Hardened for untrusted bits:
/// `init` rejects a state below the coder interval (`kCorrupt`), every loop
/// is bounded, and a dry soft reader feeds zeros until the bounded work
/// finishes (the caller turns the latched overrun into `kTruncated`).
class RansDecoder {
 public:
  explicit RansDecoder(const RansTable& table);

  [[nodiscard]] support::Status init(BitReader& reader);

  /// Decodes one byte symbol and renormalizes.
  [[nodiscard]] int decode_symbol(BitReader& reader);

  /// Decodes one residual value (undoing the escape expansion).  Corrupt
  /// input can return up to 2^16 - 1; callers tripwire on their own bound.
  [[nodiscard]] std::uint32_t decode_value(BitReader& reader);

 private:
  const RansTable* table_;
  std::array<std::uint8_t, kRansScale> slot_symbol_{};
  std::uint64_t state_ = 0;
};

}  // namespace dtse::entropy
