// The pluggable entropy-coder roster.
//
// Entropy coding is the stage every demonstrator kernel funnels its
// residuals through, and each coder family keeps genuinely different state
// on chip: the adaptive-Huffman tree arrays, the Golomb-Rice
// accumulator/counter pairs, the Exp-Golomb order state, and the rANS
// frequency/cumulative tables.  This subsystem gives them one roof — a
// `Backend` enum the codecs and workloads select by, free-function coding
// primitives the instrumented kernels call directly (so their state arrays
// enter the access profile), the `BitWriter`/`BitReader` substrate every
// codec writes through (entropy/bitstream.hpp), and a batch `EntropyCoder`
// interface over it for the roster-level surfaces: cross-backend property
// tests, fault-injection campaigns, fuzz targets and benches.
//
// The batch orientation of `EntropyCoder` is deliberate: rANS encodes in
// reverse (the encoder must see the last value first), so a
// symbol-at-a-time streaming interface cannot host it.  Codecs that
// interleave entropy codes with other fields (BTPC's raw escapes) keep
// calling the primitives instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "entropy/bitstream.hpp"
#include "support/status.hpp"

namespace dtse::entropy {

/// The roster.  Values are wire format (container backend bytes) — append
/// only, never renumber.
enum class Backend : std::uint8_t {
  kHuffman = 0,    ///< bank of adaptive (FGK) Huffman coders
  kRice = 1,       ///< sample-adaptive Golomb-Rice with raw escape
  kExpGolomb = 2,  ///< adaptive order-k Exp-Golomb
  kRans = 3,       ///< table-driven range ANS with escape symbol
};

inline constexpr Backend kAllBackends[] = {Backend::kHuffman, Backend::kRice,
                                           Backend::kExpGolomb, Backend::kRans};

[[nodiscard]] std::string_view to_string(Backend backend);
/// Parses a backend name ("huffman", "rice", "expgolomb", "rans"); returns
/// false on an unknown name.
[[nodiscard]] bool backend_from_name(std::string_view name, Backend& backend);
/// True when `value` is a roster member — the container-byte validity check.
[[nodiscard]] constexpr bool backend_valid(std::uint8_t value) { return value <= 3; }

/// Options for the roster-level coders.  The codecs carry equivalent knobs
/// in their own option structs; these parameterize the standalone batch
/// interface (and its container) only.
struct CoderOptions {
  /// Residual width bound B: every value must lie in [0, 2^B - 1].  Sets
  /// the escape payload width (Huffman/Rice), the Exp-Golomb prefix bound
  /// and the rANS corruption tripwire.
  int value_bits = 12;
  /// Longest unary quotient before Rice escapes to a raw value.
  int unary_limit = 16;
  /// Adaptation rescale threshold for the Rice / Exp-Golomb state.
  int rescale_limit = 64;
};

/// One backend behind a batch encode/decode pair.  Implementations are
/// stateful across a batch but reset per call: encoding the same values
/// twice produces the same bits.
class EntropyCoder {
 public:
  virtual ~EntropyCoder() = default;

  [[nodiscard]] virtual Backend backend() const = 0;

  /// Appends the whole batch to `writer`.  Contract: every value fits
  /// `CoderOptions::value_bits` (checked).
  virtual void encode(std::span<const std::uint32_t> values, BitWriter& writer) = 0;

  /// Decodes exactly `count` values into `out` (replacing its contents).
  /// Hardened for untrusted bits: never throws on data, output is bounded
  /// by `count`, truncation and table corruption come back as a non-ok
  /// `Status` per the robustness trichotomy.
  [[nodiscard]] virtual support::Status decode(std::size_t count, BitReader& reader,
                                               std::vector<std::uint32_t>& out) = 0;
};

[[nodiscard]] std::unique_ptr<EntropyCoder> make_coder(Backend backend,
                                                       const CoderOptions& options = {});

/// A batch of coded residuals framed for storage — the "ENT1" container the
/// entropy fuzz targets and fault campaigns attack directly.
struct EncodedBatch {
  Backend backend = Backend::kHuffman;
  int value_bits = 12;
  int unary_limit = 16;
  int rescale_limit = 64;
  std::uint32_t count = 0;  ///< number of coded values
  std::vector<std::uint16_t> stream;

  [[nodiscard]] std::uint64_t bits() const {
    return static_cast<std::uint64_t>(stream.size()) * 16u;
  }
};

/// Decode hardening limit: the largest batch `try_decode_batch` allocates.
inline constexpr std::uint32_t kMaxBatchValues = 1u << 22;

/// Encodes `values` with `backend` into a self-contained batch.
[[nodiscard]] EncodedBatch encode_batch(Backend backend,
                                        std::span<const std::uint32_t> values,
                                        const CoderOptions& options = {});

/// Hardened batch decode: validates the header ranges and a per-backend
/// minimum stream length before allocating, then runs the backend's
/// hardened `decode`.
[[nodiscard]] support::Result<std::vector<std::uint32_t>> try_decode_batch(
    const EncodedBatch& batch);

/// Serialization of the header + stream into bytes (the "ENT1" container:
/// 17-byte header, see entropy_coder.cpp).
[[nodiscard]] std::vector<std::uint8_t> serialize(const EncodedBatch& batch);
/// Hardened container parse for untrusted bytes; `Status` on any mismatch.
[[nodiscard]] support::Result<EncodedBatch> try_deserialize(
    const std::vector<std::uint8_t>& bytes);

}  // namespace dtse::entropy
