#include "entropy/rans.hpp"

#include <algorithm>
#include <string>

namespace dtse::entropy {

RansTable rans_build_table(std::span<const std::uint32_t, kRansSymbols> counts) {
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  DTSE_CHECK(total > 0, "rANS table needs at least one symbol occurrence");

  RansTable table;
  std::uint32_t sum = 0;
  for (int s = 0; s < kRansSymbols; ++s) {
    if (counts[static_cast<std::size_t>(s)] == 0) continue;
    const std::uint64_t scaled =
        (static_cast<std::uint64_t>(counts[static_cast<std::size_t>(s)]) * kRansScale) /
        total;
    table.freq[static_cast<std::size_t>(s)] =
        static_cast<std::uint16_t>(std::max<std::uint64_t>(1, scaled));
    sum += table.freq[static_cast<std::size_t>(s)];
  }
  // Fix the rounding drift on the most frequent symbols: they absorb a
  // surplus (or donate an excess) with the least relative distortion.  Both
  // loops are bounded — the drift is at most the alphabet size per pass and
  // every present symbol keeps freq >= 1.
  while (sum != kRansScale) {
    int pick = -1;
    for (int s = 0; s < kRansSymbols; ++s) {
      if (table.freq[static_cast<std::size_t>(s)] == 0) continue;
      if (sum < kRansScale) {
        if (pick < 0 || table.freq[static_cast<std::size_t>(s)] >
                            table.freq[static_cast<std::size_t>(pick)]) {
          pick = s;
        }
      } else if (table.freq[static_cast<std::size_t>(s)] > 1 &&
                 (pick < 0 || table.freq[static_cast<std::size_t>(s)] >
                                  table.freq[static_cast<std::size_t>(pick)])) {
        pick = s;
      }
    }
    DTSE_ASSERT(pick >= 0, "rANS normalization cannot converge");
    if (sum < kRansScale) {
      const auto add = std::min<std::uint32_t>(kRansScale - sum, kRansScale);
      table.freq[static_cast<std::size_t>(pick)] =
          static_cast<std::uint16_t>(table.freq[static_cast<std::size_t>(pick)] + add);
      sum += add;
    } else {
      const auto take = std::min<std::uint32_t>(
          sum - kRansScale, table.freq[static_cast<std::size_t>(pick)] - 1u);
      table.freq[static_cast<std::size_t>(pick)] =
          static_cast<std::uint16_t>(table.freq[static_cast<std::size_t>(pick)] - take);
      sum -= take;
    }
  }
  std::uint32_t cum = 0;
  for (int s = 0; s < kRansSymbols; ++s) {
    table.cum[static_cast<std::size_t>(s)] = static_cast<std::uint16_t>(cum);
    cum += table.freq[static_cast<std::size_t>(s)];
  }
  table.cum[kRansSymbols] = static_cast<std::uint16_t>(cum);
  return table;
}

support::Status rans_read_table(BitReader& reader, RansTable& table) {
  std::uint32_t sum = 0;
  for (int s = 0; s < kRansSymbols; ++s) {
    const auto f = reader.get(kRansFreqBits);
    table.freq[static_cast<std::size_t>(s)] = static_cast<std::uint16_t>(f);
    sum += f;
  }
  if (reader.overrun()) {
    return support::Status::error(support::StatusCode::kTruncated,
                                  "stream ends inside a rANS frequency table",
                                  reader.bits_read());
  }
  // The scale-sum invariant is the table's checksum: any slot outside a
  // symbol's range would make decode_symbol pick the wrong symbol, so a
  // table that does not sum to the scale is rejected before any decoding.
  if (sum != kRansScale) {
    return support::Status::error(
        support::StatusCode::kCorrupt,
        "rANS frequencies sum to " + std::to_string(sum) + ", expected " +
            std::to_string(kRansScale),
        reader.bits_read());
  }
  std::uint32_t cum = 0;
  for (int s = 0; s < kRansSymbols; ++s) {
    table.cum[static_cast<std::size_t>(s)] = static_cast<std::uint16_t>(cum);
    cum += table.freq[static_cast<std::size_t>(s)];
  }
  table.cum[kRansSymbols] = static_cast<std::uint16_t>(cum);
  return support::Status{};
}

RansDecoder::RansDecoder(const RansTable& table) : table_(&table) {
  // Slot -> symbol directly; with freq summing to the scale every slot maps
  // to exactly one symbol of nonzero frequency.
  std::size_t slot = 0;
  for (int s = 0; s < kRansSymbols; ++s) {
    for (std::uint32_t i = 0; i < table.freq[static_cast<std::size_t>(s)]; ++i) {
      slot_symbol_[slot++] = static_cast<std::uint8_t>(s);
    }
  }
  DTSE_ASSERT(slot == kRansScale, "rANS slot table does not cover the scale");
}

support::Status RansDecoder::init(BitReader& reader) {
  const auto high = reader.get(16);
  const auto low = reader.get(16);
  state_ = (static_cast<std::uint64_t>(high) << 16) | low;
  if (reader.overrun()) {
    return support::Status::error(support::StatusCode::kTruncated,
                                  "stream ends inside a rANS block state",
                                  reader.bits_read());
  }
  // The encoder's final state never leaves [L, 2^32); a smaller value
  // cannot have been produced and would break the decode-step invariant.
  if (state_ < kRansL) {
    return support::Status::error(support::StatusCode::kCorrupt,
                                  "rANS state below the coder interval",
                                  reader.bits_read());
  }
  return support::Status{};
}

int RansDecoder::decode_symbol(BitReader& reader) {
  const auto slot = static_cast<std::uint32_t>(state_ & (kRansScale - 1));
  const int symbol = slot_symbol_[slot];
  state_ = static_cast<std::uint64_t>(table_->freq[static_cast<std::size_t>(symbol)]) *
               (state_ >> kRansScaleBits) +
           slot - table_->cum[static_cast<std::size_t>(symbol)];
  // Renormalize.  After a decode step the state is >= 16 (freq >= 1 and the
  // pre-step state was >= L), so at most two pulls restore the invariant;
  // the guard keeps even a broken-invariant state from spinning.
  int pulls = 0;
  while (state_ < kRansL && pulls < 4) {
    state_ = (state_ << 16) | reader.get(16);
    ++pulls;
  }
  return symbol;
}

std::uint32_t RansDecoder::decode_value(BitReader& reader) {
  const int symbol = decode_symbol(reader);
  if (symbol != kRansEscape) return static_cast<std::uint32_t>(symbol);
  const auto low = static_cast<std::uint32_t>(decode_symbol(reader));
  const auto high = static_cast<std::uint32_t>(decode_symbol(reader));
  return low | (high << 8);
}

}  // namespace dtse::entropy
