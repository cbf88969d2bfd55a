// Big-endian byte-level serialization primitives: the one framing layer of
// every byte container (APP1 application models, BTPC/BTP2 images,
// HSC1/HSC2 cubes).
//
// `ByteWriter` appends fixed-width big-endian fields; `ByteReader` is the
// hardened mirror with the same soft-exhaustion contract as
// `entropy::BitReader`: reading past the end returns zeros, consumes nothing
// and latches a sticky `overrun()` flag — so parse loops stay branch-light
// and one truncation check at each structural boundary converts exhaustion
// into a clean `Status`.  Doubles travel as IEEE-754 bit patterns
// (`std::bit_cast`), which round-trips every finite value bit-exactly; the
// container parsers reject non-finite values so accepted artifacts
// re-serialize to identical bytes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dtse::support {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }

  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }

  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed string (u16 length + raw bytes).
  void string(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  void raw(const std::uint8_t* data, std::size_t size) {
    bytes_.insert(bytes_.end(), data, data + size);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Soft-exhaustion reader over a byte span (not owning).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    if (pos_ >= size_) {
      overrun_ = true;
      return 0;
    }
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() {
    const auto hi = u8();
    return static_cast<std::uint16_t>((static_cast<std::uint16_t>(hi) << 8) | u8());
  }

  [[nodiscard]] std::uint32_t u32() {
    const auto hi = u16();
    return (static_cast<std::uint32_t>(hi) << 16) | u16();
  }

  [[nodiscard]] std::uint64_t u64() {
    const auto hi = u32();
    return (static_cast<std::uint64_t>(hi) << 32) | u32();
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  /// Length-prefixed string, bounded: a declared length that exceeds
  /// `max_bytes` or the remaining input latches the overrun flag and
  /// returns an empty string — nothing is allocated for a hostile length.
  [[nodiscard]] std::string string(std::size_t max_bytes) {
    const std::size_t len = u16();
    if (len > max_bytes || len > remaining()) {
      overrun_ = true;
      return {};
    }
    std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return out;
  }

  [[nodiscard]] bool overrun() const { return overrun_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::uint64_t bit_offset() const { return pos_ * 8; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ >= size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool overrun_ = false;
};

}  // namespace dtse::support
