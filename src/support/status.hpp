// Status/Result: error values for *data* errors.
//
// The library distinguishes two failure families (see check.hpp for the
// enforcement rule):
//
//  * Contract/invariant bugs — a caller misused an API or the library broke
//    its own invariant.  These throw (`DTSE_CHECK` / `DTSE_ASSERT`): the
//    process is in a state the programmer never intended, and tests must see
//    it loudly.
//
//  * Data errors — a bitstream, container, profile artifact or job request
//    from *outside* the process is malformed, truncated or hostile.  These
//    are normal inputs for a decoder that fronts a service, so they are
//    returned as values: a `Status` (code + message + bit offset) or a
//    `Result<T>` (Status or value).  Hardened entry points (`try_decode`,
//    `try_deserialize`) are proven crash-free, hang-free and leak-free on
//    arbitrary bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace dtse::support {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kMalformedHeader,  ///< header field out of range or inconsistent
  kTruncated,        ///< stream ended before the payload did
  kCorrupt,          ///< payload decodes to an impossible value
  kResourceLimit,    ///< input requests more than the decoder will allocate
  kCancelled,        ///< cooperative cancellation fired
  kFailed,           ///< other failure (e.g. a wrapped exception)
};

[[nodiscard]] constexpr const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kMalformedHeader: return "malformed header";
    case StatusCode::kTruncated: return "truncated";
    case StatusCode::kCorrupt: return "corrupt";
    case StatusCode::kResourceLimit: return "resource limit";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kFailed: return "failed";
  }
  return "?";
}

/// A data-error verdict: code, human-readable message and, when the error
/// was detected at a known position in a stream, the bit offset.
class [[nodiscard]] Status {
 public:
  static constexpr std::uint64_t kNoOffset = ~std::uint64_t{0};

  /// Default-constructed Status is OK (there is no separate factory: the
  /// member accessor below owns the `ok` name).
  Status() = default;

  [[nodiscard]] static Status error(StatusCode code, std::string message,
                                    std::uint64_t offset_bits = kNoOffset) {
    DTSE_CHECK(code != StatusCode::kOk, "error status needs a non-ok code");
    Status status;
    status.code_ = code;
    status.message_ = std::move(message);
    status.offset_bits_ = offset_bits;
    return status;
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }
  /// Bit offset into the input stream at which the error was detected, or
  /// `kNoOffset` when the error is not positional.
  [[nodiscard]] std::uint64_t offset_bits() const { return offset_bits_; }

  [[nodiscard]] std::string to_string() const {
    if (ok()) return "ok";
    std::string text = support::to_string(code_);
    if (offset_bits_ != kNoOffset) {
      text += " @bit " + std::to_string(offset_bits_);
    }
    if (!message_.empty()) {
      text += ": ";
      text += message_;
    }
    return text;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  std::uint64_t offset_bits_ = kNoOffset;
};

/// A value or the Status explaining why there is none.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Success.  Implicit so hardened decoders can `return cube;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Failure.  Implicit so hardened decoders can `return status;`; the
  /// status must carry an error code.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    DTSE_CHECK(!status_.ok(), "a Result built from a Status needs an error");
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] const T& value() const& {
    DTSE_CHECK(ok(), "value() on a failed Result: " + status_.to_string());
    return *value_;
  }
  [[nodiscard]] T& value() & {
    DTSE_CHECK(ok(), "value() on a failed Result: " + status_.to_string());
    return *value_;
  }
  /// Moves the value out (the Result is left empty-but-ok; use once).
  [[nodiscard]] T take() {
    DTSE_CHECK(ok(), "take() on a failed Result: " + status_.to_string());
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace dtse::support
