// Reference rANS block writer for the `RansDecoder` primitive tests.
//
// The library keeps the decode side and the single encode step only: the
// one encoder that runs in the pipeline, hyperspec's instrumented band
// coder, expands escapes, writes the frequency table, the final state and
// the reversed renormalization words through its own instrumented arrays.
// These are the plain, uninstrumented versions of those steps, framing a
// block as
//   [256 x 13-bit frequencies][32-bit final state][renorm words, reversed]
// so tests/entropy_test.cpp can check `rans_read_table` / `RansDecoder`
// against a writer that shares no code with the codec.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "entropy/bitstream.hpp"
#include "entropy/rans.hpp"
#include "support/check.hpp"

namespace dtse::entropy::oracle {

/// Expands residual values (< 2^16) into the escape-coded byte-symbol
/// sequence the coder actually transmits.
[[nodiscard]] inline std::vector<std::uint8_t> rans_expand(
    std::span<const std::uint32_t> values) {
  std::vector<std::uint8_t> symbols;
  symbols.reserve(values.size());
  for (const auto value : values) {
    DTSE_CHECK(value < (1u << 16), "rANS value exceeds the escape range");
    if (value < static_cast<std::uint32_t>(kRansEscape)) {
      symbols.push_back(static_cast<std::uint8_t>(value));
    } else {
      symbols.push_back(static_cast<std::uint8_t>(kRansEscape));
      symbols.push_back(static_cast<std::uint8_t>(value & 0xFFu));
      symbols.push_back(static_cast<std::uint8_t>(value >> 8));
    }
  }
  return symbols;
}

/// Writes the 256 x 13-bit frequency fields of `table` through `writer`.
inline void rans_write_table(const RansTable& table, BitWriter& writer) {
  for (const auto freq : table.freq) writer.put(freq, kRansFreqBits);
}

/// Finishes a block: writes the 32-bit final state then the renorm words in
/// reverse emission order, so the decoder (a LIFO mirror of the encoder)
/// reads the stream strictly forward.
inline void rans_flush(std::uint64_t state, const std::vector<std::uint16_t>& emitted,
                       BitWriter& writer) {
  writer.put(static_cast<std::uint32_t>(state >> 16), 16);
  writer.put(static_cast<std::uint32_t>(state & 0xFFFFu), 16);
  for (auto it = emitted.rbegin(); it != emitted.rend(); ++it) writer.put(*it, 16);
}

}  // namespace dtse::entropy::oracle
