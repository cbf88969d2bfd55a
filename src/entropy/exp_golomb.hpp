// Adaptive order-k Exp-Golomb coding primitives.
//
// An order-k Exp-Golomb code splits a value into k literal low bits and a
// quotient coded as an Elias-gamma prefix: for x = (value >> k) + 1 with
// bit width b+1, emit b zeros, then x itself (its leading 1 doubles as the
// prefix terminator), then the k low bits.  Unlike Rice's unary quotient
// the prefix grows logarithmically, so no escape path is needed — the code
// length for a B-bit value is bounded by 2*(B-k)+1+k bits.
//
// The order k adapts per context with the same accumulator/counter state as
// the Rice coder (`rice_k`/`rice_update` in golomb_rice.hpp): Rice's
// optimal parameter is a good Exp-Golomb order for the same geometric-ish
// residual statistics, and sharing the state keeps the two backends'
// on-chip footprint directly comparable in the exploration.
#pragma once

#include <bit>
#include <cstdint>

#include "entropy/bitstream.hpp"
#include "support/check.hpp"

namespace dtse::entropy {

/// Sentinel returned by `eg_decode` when the zero-run exceeds `max_prefix`:
/// no valid value, callers treat it as stream corruption.
inline constexpr std::uint64_t kEgInvalid = ~std::uint64_t{0};

/// Emits `value` at order `k`.  Contract: `value < 2^21` and `k <= 16` so
/// every field fits one BitWriter `put` (prefix <= 21 zeros, x in <= 22
/// bits); both codecs stay far inside that (B <= 16).
inline void eg_encode(BitWriter& writer, std::uint32_t value, int k) {
  DTSE_DCHECK(k >= 0 && k <= 16, "exp-golomb order out of range");
  DTSE_DCHECK(value < (1u << 21), "exp-golomb value too wide");
  const std::uint32_t x = (value >> k) + 1;
  const int b = std::bit_width(x) - 1;
  if (b > 0) writer.put(0, b);
  writer.put(x, b + 1);
  if (k > 0) writer.put(value & ((1u << k) - 1u), k);
}

/// Decodes one order-`k` value.  `max_prefix` bounds the zero-run scan (a
/// valid stream for B-bit values never exceeds B - k zeros); a longer run —
/// hostile bits or a dry soft reader — returns `kEgInvalid` after bounded
/// work instead of shifting past 64 bits.  The result can exceed the
/// caller's value bound on corrupt input; callers tripwire on that.
[[nodiscard]] inline std::uint64_t eg_decode(BitReader& reader, int k, int max_prefix) {
  DTSE_DCHECK(k >= 0 && k <= 16 && max_prefix >= 0 && max_prefix <= 24,
              "exp-golomb decode parameters out of range");
  int b = 0;
  while (b <= max_prefix && reader.get_bit() == 0) ++b;
  if (b > max_prefix) return kEgInvalid;
  const std::uint64_t x = (std::uint64_t{1} << b) | (b > 0 ? reader.get(b) : 0);
  const std::uint64_t low = k > 0 ? reader.get(k) : 0;
  return ((x - 1) << k) | low;
}

}  // namespace dtse::entropy
