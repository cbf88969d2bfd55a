// Sample-adaptive Golomb-Rice coding primitives.
//
// Lifted verbatim from the hyperspectral codec so every kernel shares one
// definition: a per-context accumulator/counter pair selects the Rice
// parameter k (largest k whose per-sample cost estimate stays within the
// accumulated magnitude), codes are unary-quotient + k low bits, and a
// quotient at `unary_limit` escapes to a raw `raw_bits`-wide value with no
// terminator.  The state update halves both counters at `rescale_limit` so
// adaptation keeps tracking.  The callers own the state — instrumented
// arrays in the codecs, plain integers in the roster coder — so the access
// profile sees the real traffic.
#pragma once

#include <cstdint>

#include "entropy/bitstream.hpp"

namespace dtse::entropy {

/// Context state seed: any value works as long as encoder and decoder
/// agree; a counter of 4 with a mean-4 accumulator starts adaptation near
/// k = 2.
inline constexpr std::uint32_t kRiceInitCount = 4;
inline constexpr std::uint32_t kRiceInitMean = 4;

/// Sample-adaptive Rice parameter: largest k whose per-sample cost estimate
/// (counter << k) stays within the accumulated residual magnitude.
[[nodiscard]] inline int rice_k(std::uint32_t accum, std::uint32_t count, int max_k) {
  int k = 0;
  while (k < max_k && (static_cast<std::uint64_t>(count) << (k + 1)) <= accum) ++k;
  return k;
}

inline void rice_update(std::uint32_t& accum, std::uint32_t& count, std::uint32_t value,
                        int rescale_limit) {
  accum += value;
  count += 1;
  if (count >= static_cast<std::uint32_t>(rescale_limit)) {
    accum = (accum + 1) >> 1;
    count = (count + 1) >> 1;
  }
}

/// Emits `value` at parameter `k`.  Contract: the caller guarantees `value`
/// fits `raw_bits` (<= 24) — for a mapped residual that is the dynamic
/// range, see the mapping bound in hyperspec/codec.cpp.
inline void rice_encode(BitWriter& writer, std::uint32_t value, int k, int unary_limit,
                        int raw_bits) {
  const std::uint32_t quotient = value >> k;
  if (quotient < static_cast<std::uint32_t>(unary_limit)) {
    writer.put(0, static_cast<int>(quotient));
    writer.put(1, 1);
    if (k > 0) writer.put(value & ((1u << k) - 1u), k);
    return;
  }
  // Escape: a maximal run of zeros (no terminator) followed by the raw value.
  writer.put(0, unary_limit);
  writer.put(value, raw_bits);
}

/// Decodes one value at parameter `k`.  The unary scan is bounded by
/// `unary_limit`, so a hostile all-zeros stream cannot stall the loop; a
/// dry soft reader feeds zeros until the bounded walk finishes.
[[nodiscard]] inline std::uint32_t rice_decode(BitReader& reader, int k, int unary_limit,
                                               int raw_bits) {
  int quotient = 0;
  while (quotient < unary_limit && reader.get_bit() == 0) ++quotient;
  if (quotient == unary_limit) return reader.get(raw_bits);
  const std::uint32_t low = k > 0 ? reader.get(k) : 0;
  return (static_cast<std::uint32_t>(quotient) << k) | low;
}

}  // namespace dtse::entropy
