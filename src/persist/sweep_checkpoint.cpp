#include "persist/sweep_checkpoint.hpp"

#include <cmath>
#include <cstring>

#include "persist/file_io.hpp"
#include "persist/fnv.hpp"
#include "support/byte_io.hpp"
#include "support/check.hpp"

namespace dtse::persist {

namespace {

using support::ByteReader;
using support::ByteWriter;
using support::Result;
using support::Status;
using support::StatusCode;

constexpr std::uint8_t kMagic[4] = {'S', 'W', 'P', '1'};
constexpr std::uint64_t kMaxCheckpointFileBytes = 16ull * 1024 * 1024;

[[nodiscard]] bool cost_in_range(double v) {
  return std::isfinite(v) && v >= 0.0 && v <= 1e18;
}

}  // namespace

std::vector<std::uint8_t> serialize(const SweepCheckpoint& checkpoint) {
  DTSE_CHECK(checkpoint.rows.size() <= kMaxCheckpointRows,
             "checkpoint exceeds the row cap");
  ByteWriter payload;
  for (const auto& row : checkpoint.rows) {
    DTSE_CHECK(row.count > 0 &&
                   row.count <= static_cast<int>(kMaxCheckpointCount),
               "checkpoint row has an out-of-range allocation count");
    DTSE_CHECK(!row.label.empty() && row.label.size() <= kMaxCheckpointLabelBytes,
               "checkpoint row needs a bounded non-empty label");
    payload.u32(static_cast<std::uint32_t>(row.count));
    payload.u8(row.feasible ? 1 : 0);
    payload.u64(row.spare_cycles);
    payload.f64(row.summary.onchip_area_mm2);
    payload.f64(row.summary.onchip_power_mw);
    payload.f64(row.summary.offchip_power_mw);
    payload.string(row.label);
  }

  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u16(kCheckpointVersion);
  out.u16(0);  // reserved pad, must read back zero
  out.u64(checkpoint.fingerprint);
  out.u32(static_cast<std::uint32_t>(checkpoint.rows.size()));
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u64(fnv1a(payload.bytes().data(), payload.size()));
  out.raw(payload.bytes().data(), payload.size());
  return out.take();
}

support::Result<SweepCheckpoint> try_deserialize_checkpoint(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kCheckpointHeaderBytes) {
    return Status::error(StatusCode::kTruncated,
                         "checkpoint of " + std::to_string(bytes.size()) +
                             " bytes is shorter than the " +
                             std::to_string(kCheckpointHeaderBytes) + "-byte header",
                         static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  ByteReader header(bytes.data(), bytes.size());
  std::uint8_t magic[4];
  for (auto& b : magic) b = header.u8();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::error(StatusCode::kMalformedHeader,
                         "bad checkpoint magic (expected \"SWP1\")", 0);
  }
  const std::uint16_t version = header.u16();
  if (version != kCheckpointVersion) {
    return Status::error(StatusCode::kMalformedHeader,
                         "unsupported checkpoint version " + std::to_string(version),
                         header.bit_offset());
  }
  if (header.u16() != 0) {
    return Status::error(StatusCode::kMalformedHeader,
                         "reserved checkpoint header field is non-zero",
                         header.bit_offset());
  }
  const std::uint64_t fingerprint = header.u64();
  const std::uint32_t rows = header.u32();
  const std::uint32_t declared_payload = header.u32();
  const std::uint64_t payload_hash = header.u64();
  if (rows > kMaxCheckpointRows) {
    return Status::error(StatusCode::kResourceLimit,
                         "checkpoint declares " + std::to_string(rows) + " rows (cap " +
                             std::to_string(kMaxCheckpointRows) + ")",
                         header.bit_offset());
  }
  if (kCheckpointHeaderBytes + static_cast<std::uint64_t>(declared_payload) !=
      bytes.size()) {
    return Status::error(StatusCode::kTruncated,
                         "checkpoint declares " + std::to_string(declared_payload) +
                             " payload bytes but carries " +
                             std::to_string(bytes.size() - kCheckpointHeaderBytes),
                         static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  // Minimum row record: 4 + 1 + 8 + 3*8 + 2 bytes.
  if (static_cast<std::uint64_t>(rows) * 39 > declared_payload) {
    return Status::error(StatusCode::kTruncated,
                         "declared row count exceeds the payload",
                         header.bit_offset());
  }
  const std::uint8_t* payload = bytes.data() + kCheckpointHeaderBytes;
  if (fnv1a(payload, declared_payload) != payload_hash) {
    return Status::error(StatusCode::kCorrupt, "checkpoint payload hash mismatch",
                         kCheckpointHeaderBytes * 8);
  }

  SweepCheckpoint checkpoint;
  checkpoint.fingerprint = fingerprint;
  checkpoint.rows.reserve(rows);
  ByteReader reader(payload, declared_payload);
  for (std::uint32_t i = 0; i < rows; ++i) {
    CheckpointRow row;
    const std::uint32_t count = reader.u32();
    const std::uint8_t feasible = reader.u8();
    row.spare_cycles = reader.u64();
    row.summary.onchip_area_mm2 = reader.f64();
    row.summary.onchip_power_mw = reader.f64();
    row.summary.offchip_power_mw = reader.f64();
    row.label = reader.string(kMaxCheckpointLabelBytes);
    if (reader.overrun()) {
      return Status::error(StatusCode::kTruncated, "payload ended inside a row",
                           kCheckpointHeaderBytes * 8 + reader.bit_offset());
    }
    if (count == 0 || count > kMaxCheckpointCount) {
      return Status::error(StatusCode::kCorrupt, "row allocation count out of range",
                           kCheckpointHeaderBytes * 8 + reader.bit_offset());
    }
    if (feasible > 1) {
      return Status::error(StatusCode::kCorrupt, "row feasibility flag out of range",
                           kCheckpointHeaderBytes * 8 + reader.bit_offset());
    }
    if (!cost_in_range(row.summary.onchip_area_mm2) ||
        !cost_in_range(row.summary.onchip_power_mw) ||
        !cost_in_range(row.summary.offchip_power_mw)) {
      return Status::error(StatusCode::kCorrupt, "row cost triple out of range",
                           kCheckpointHeaderBytes * 8 + reader.bit_offset());
    }
    if (row.label.empty()) {
      return Status::error(StatusCode::kCorrupt, "row with an empty label",
                           kCheckpointHeaderBytes * 8 + reader.bit_offset());
    }
    row.count = static_cast<int>(count);
    row.feasible = feasible == 1;
    checkpoint.rows.push_back(std::move(row));
  }
  if (!reader.exhausted()) {
    return Status::error(StatusCode::kCorrupt, "checkpoint payload has trailing bytes",
                         kCheckpointHeaderBytes * 8 + reader.bit_offset());
  }
  return checkpoint;
}

std::optional<SweepCheckpoint> load_checkpoint(const std::string& path,
                                               std::uint64_t expected_fingerprint) {
  std::vector<std::uint8_t> bytes;
  if (!read_file_bytes(path, kMaxCheckpointFileBytes, bytes)) return std::nullopt;
  auto result = try_deserialize_checkpoint(bytes);
  if (!result.ok()) {
    quarantine_file(path);
    return std::nullopt;
  }
  auto checkpoint = result.take();
  // A stale fingerprint is not corruption — the sweep recipe changed.  The
  // file stays put; the next save overwrites it with the new recipe's rows.
  if (checkpoint.fingerprint != expected_fingerprint) return std::nullopt;
  return checkpoint;
}

bool save_checkpoint(const std::string& path, const SweepCheckpoint& checkpoint) {
  return atomic_write_file(path, serialize(checkpoint));
}

}  // namespace dtse::persist
