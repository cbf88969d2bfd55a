// The entropy-coder roster: the `Backend` the codecs and workloads select by.
//
// Entropy coding is the stage every demonstrator kernel funnels its
// residuals through, and each coder family keeps genuinely different state
// on chip: the adaptive-Huffman tree arrays, the Golomb-Rice
// accumulator/counter pairs, the Exp-Golomb order state, and the rANS
// frequency/cumulative tables.  The codecs code every backend inline through
// the free-function primitives of this directory (adaptive_huffman,
// golomb_rice, exp_golomb, rans), so the instrumented kernels keep those
// state arrays in the access profile; every codec writes through the
// `BitWriter`/`BitReader` substrate of entropy/bitstream.hpp.  BTPC carries
// Huffman, Rice and Exp-Golomb ("BTPC"/"BTP2"), hyperspec Rice, Exp-Golomb
// and rANS ("HSC1"/"HSC2").
#pragma once

#include <cstdint>
#include <string_view>

namespace dtse::entropy {

/// The roster.  Values are wire format (container backend bytes) — append
/// only, never renumber.
enum class Backend : std::uint8_t {
  kHuffman = 0,    ///< bank of adaptive (FGK) Huffman coders
  kRice = 1,       ///< sample-adaptive Golomb-Rice with raw escape
  kExpGolomb = 2,  ///< adaptive order-k Exp-Golomb
  kRans = 3,       ///< table-driven range ANS with escape symbol
};

[[nodiscard]] constexpr std::string_view to_string(Backend backend) {
  switch (backend) {
    case Backend::kHuffman: return "huffman";
    case Backend::kRice: return "rice";
    case Backend::kExpGolomb: return "expgolomb";
    case Backend::kRans: return "rans";
  }
  return "unknown";
}

/// True when `value` is a roster member — the container-byte validity check.
[[nodiscard]] constexpr bool backend_valid(std::uint8_t value) { return value <= 3; }

}  // namespace dtse::entropy
