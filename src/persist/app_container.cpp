#include "persist/app_container.hpp"

#include <cmath>
#include <cstring>
#include <queue>
#include <set>
#include <string>
#include <utility>

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

constexpr std::uint8_t kMagic[4] = {'A', 'P', 'P', '1'};
constexpr std::uint16_t kSectionCount = 4;

// Fixed section order; a container with reordered sections is malformed
// (keeps the accepted encoding canonical).
constexpr std::uint32_t kTagName = 0x4E414D45;  // "NAME"
constexpr std::uint32_t kTagGroups = 0x47525053;  // "GRPS"
constexpr std::uint32_t kTagBodies = 0x424F4453;  // "BODS"
constexpr std::uint32_t kTagReuse = 0x52455553;  // "REUS"
constexpr std::uint32_t kTags[kSectionCount] = {kTagName, kTagGroups, kTagBodies,
                                                kTagReuse};

// Field sanity caps beyond which a group makes no physical sense; they keep
// the downstream bit/word arithmetic (words * bitwidth) inside u64.
constexpr std::uint64_t kMaxGroupWords = 1ULL << 48;
constexpr std::uint32_t kMaxBitwidth = 65'536;
constexpr std::uint32_t kMaxHierarchyLayer = 1u << 20;

void check_finite(double v, const char* what) {
  DTSE_CHECK(std::isfinite(v), std::string("non-finite ") + what +
                                   " cannot be serialized (data must round-trip)");
}

[[nodiscard]] Status corrupt(std::string message, std::uint64_t offset_bits) {
  return Status::error(StatusCode::kCorrupt, std::move(message), offset_bits);
}

[[nodiscard]] Status truncated(const ByteReader& reader, const char* where) {
  return Status::error(StatusCode::kTruncated,
                       std::string("section ended inside ") + where, reader.bit_offset());
}

/// Finite-and-in-range gate for every deserialized double: NaN/Inf never
/// enter a model, and rejecting them keeps accepted containers canonical
/// (one bit pattern per accepted value).
[[nodiscard]] bool valid_range(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

// Kahn's algorithm over one parsed body (mirrors ir::Application::validate,
// which throws; here a cycle is data and must come back as a Status).
[[nodiscard]] bool deps_acyclic(std::size_t n,
                                const std::vector<ir::Dependency>& deps) {
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<std::size_t>> out(n);
  for (const auto& [from, to] : deps) {
    out[from].push_back(to);
    ++indegree[to];
  }
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    const std::size_t node = ready.front();
    ready.pop();
    ++seen;
    for (const auto next : out[node]) {
      if (--indegree[next] == 0) ready.push(next);
    }
  }
  return seen == n;
}

void write_groups(const ir::Application& app, ByteWriter& out) {
  const auto ids = app.group_ids();
  DTSE_CHECK(ids.size() <= kMaxAppGroups, "model exceeds the container group cap");
  out.u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto id : ids) {
    const auto& group = app.group(id);
    DTSE_CHECK(group.name.size() <= kMaxAppNameBytes, "group name exceeds the cap");
    out.string(group.name);
    out.u64(group.words);
    out.u32(static_cast<std::uint32_t>(group.bitwidth));
    out.u8(group.forced_location.has_value() ? 1 : 0);
    out.u8(group.forced_location.has_value()
               ? static_cast<std::uint8_t>(*group.forced_location)
               : 0);
    out.u32(static_cast<std::uint32_t>(group.hierarchy_layer));
  }
}

void write_bodies(const ir::Application& app, ByteWriter& out) {
  const auto ids = app.body_ids();
  DTSE_CHECK(ids.size() <= kMaxAppBodies, "model exceeds the container body cap");
  out.u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto id : ids) {
    const auto& body = app.body(id);
    DTSE_CHECK(body.name.size() <= kMaxAppNameBytes, "body name exceeds the cap");
    DTSE_CHECK(body.accesses.size() <= kMaxAppAccessesPerBody,
               "body exceeds the container access cap");
    DTSE_CHECK(body.deps.size() <= kMaxAppEdgesPerBody, "body exceeds the dep cap");
    DTSE_CHECK(body.co_accesses.size() <= kMaxAppEdgesPerBody,
               "body exceeds the co-access cap");
    out.string(body.name);
    out.u64(body.iterations);
    out.u32(static_cast<std::uint32_t>(body.accesses.size()));
    for (const auto& access : body.accesses) {
      check_finite(access.per_iteration, "per_iteration");
      check_finite(access.stride1_fraction, "stride1_fraction");
      check_finite(access.dense_fraction, "dense_fraction");
      check_finite(access.dense_stride, "dense_stride");
      out.u32(access.group.value());
      out.u8(static_cast<std::uint8_t>(access.kind));
      out.f64(access.per_iteration);
      out.f64(access.stride1_fraction);
      out.f64(access.dense_fraction);
      out.f64(access.dense_stride);
    }
    out.u32(static_cast<std::uint32_t>(body.deps.size()));
    for (const auto& [from, to] : body.deps) {
      out.u32(static_cast<std::uint32_t>(from));
      out.u32(static_cast<std::uint32_t>(to));
    }
    out.u32(static_cast<std::uint32_t>(body.co_accesses.size()));
    for (const auto& co : body.co_accesses) {
      check_finite(co.pairs_per_iteration, "pairs_per_iteration");
      out.u32(static_cast<std::uint32_t>(co.access_a));
      out.u32(static_cast<std::uint32_t>(co.access_b));
      out.f64(co.pairs_per_iteration);
    }
  }
}

void write_reuse(const ir::Application& app, ByteWriter& out) {
  // Group-id order (ascending) keeps the section canonical; the underlying
  // std::map already iterates that way.
  std::vector<std::pair<std::uint32_t, const ir::ReuseProfile*>> entries;
  for (const auto id : app.group_ids()) {
    if (const auto* profile = app.reuse_profile(id); profile != nullptr) {
      entries.emplace_back(id.value(), profile);
    }
  }
  out.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [group, profile] : entries) {
    DTSE_CHECK(profile->windows.size() <= kMaxAppReuseWindows,
               "reuse profile exceeds the window cap");
    out.u32(group);
    out.u32(static_cast<std::uint32_t>(profile->windows.size()));
    for (const auto& window : profile->windows) {
      check_finite(window.misses_per_frame, "misses_per_frame");
      out.u64(window.window_words);
      out.f64(window.misses_per_frame);
    }
  }
}

[[nodiscard]] Status parse_name(ByteReader& reader, ir::Application& app) {
  auto name = reader.string(kMaxAppNameBytes);
  if (reader.overrun()) return truncated(reader, "the application name");
  app.set_name(std::move(name));
  return Status{};
}

[[nodiscard]] Status parse_groups(ByteReader& reader, ir::Application& app) {
  const std::uint32_t count = reader.u32();
  if (count > kMaxAppGroups) {
    return Status::error(StatusCode::kResourceLimit,
                         "container declares " + std::to_string(count) +
                             " groups (cap " + std::to_string(kMaxAppGroups) + ")",
                         reader.bit_offset());
  }
  // Minimum group record: 2 (name len) + 8 + 4 + 1 + 1 + 4 bytes.
  if (static_cast<std::uint64_t>(count) * 20 > reader.remaining()) {
    return Status::error(StatusCode::kTruncated,
                         "declared group count exceeds the section payload",
                         reader.bit_offset());
  }
  std::set<std::string> names;
  for (std::uint32_t i = 0; i < count; ++i) {
    ir::BasicGroup group;
    group.name = reader.string(kMaxAppNameBytes);
    group.words = reader.u64();
    const std::uint32_t bitwidth = reader.u32();
    const std::uint8_t has_location = reader.u8();
    const std::uint8_t location = reader.u8();
    const std::uint32_t layer = reader.u32();
    if (reader.overrun()) return truncated(reader, "a group record");
    if (group.name.empty()) {
      return corrupt("group with an empty name", reader.bit_offset());
    }
    if (!names.insert(group.name).second) {
      return corrupt("duplicate group name '" + group.name + "'", reader.bit_offset());
    }
    if (group.words == 0 || group.words > kMaxGroupWords) {
      return corrupt("group word count out of range", reader.bit_offset());
    }
    if (bitwidth == 0 || bitwidth > kMaxBitwidth) {
      return corrupt("group bitwidth out of range", reader.bit_offset());
    }
    if (has_location > 1 || (has_location == 0 && location != 0) || location > 1) {
      return corrupt("malformed forced-location flag", reader.bit_offset());
    }
    if (layer > kMaxHierarchyLayer) {
      return corrupt("hierarchy layer out of range", reader.bit_offset());
    }
    group.bitwidth = static_cast<int>(bitwidth);
    if (has_location == 1) {
      group.forced_location = static_cast<memlib::Location>(location);
    }
    group.hierarchy_layer = static_cast<int>(layer);
    app.add_group(std::move(group));
  }
  return Status{};
}

[[nodiscard]] Status parse_bodies(ByteReader& reader, ir::Application& app) {
  const std::uint32_t count = reader.u32();
  if (count > kMaxAppBodies) {
    return Status::error(StatusCode::kResourceLimit,
                         "container declares " + std::to_string(count) +
                             " bodies (cap " + std::to_string(kMaxAppBodies) + ")",
                         reader.bit_offset());
  }
  // Minimum body record: 2 + 8 + 4 + 4 + 4 bytes.
  if (static_cast<std::uint64_t>(count) * 22 > reader.remaining()) {
    return Status::error(StatusCode::kTruncated,
                         "declared body count exceeds the section payload",
                         reader.bit_offset());
  }
  const auto group_count = static_cast<std::uint32_t>(app.group_count());
  for (std::uint32_t i = 0; i < count; ++i) {
    ir::LoopBody body;
    body.name = reader.string(kMaxAppNameBytes);
    body.iterations = reader.u64();
    if (reader.overrun()) return truncated(reader, "a body header");
    if (body.name.empty()) return corrupt("body with an empty name", reader.bit_offset());
    if (body.iterations == 0) {
      return corrupt("body with zero iterations", reader.bit_offset());
    }

    const std::uint32_t accesses = reader.u32();
    if (accesses > kMaxAppAccessesPerBody) {
      return Status::error(StatusCode::kResourceLimit,
                           "body declares " + std::to_string(accesses) + " accesses",
                           reader.bit_offset());
    }
    // One access record is 4 + 1 + 4 * 8 = 37 bytes.
    if (static_cast<std::uint64_t>(accesses) * 37 > reader.remaining()) {
      return Status::error(StatusCode::kTruncated,
                           "declared access count exceeds the section payload",
                           reader.bit_offset());
    }
    body.accesses.reserve(accesses);
    for (std::uint32_t a = 0; a < accesses; ++a) {
      ir::Access access;
      const std::uint32_t group = reader.u32();
      const std::uint8_t kind = reader.u8();
      access.per_iteration = reader.f64();
      access.stride1_fraction = reader.f64();
      access.dense_fraction = reader.f64();
      access.dense_stride = reader.f64();
      if (reader.overrun()) return truncated(reader, "an access record");
      if (group >= group_count) {
        return corrupt("access references group " + std::to_string(group) + " of " +
                           std::to_string(group_count),
                       reader.bit_offset());
      }
      if (kind > 1) return corrupt("unknown access kind", reader.bit_offset());
      constexpr double kMaxPerIteration = 1e18;
      if (!valid_range(access.per_iteration, 0.0, kMaxPerIteration) ||
          !valid_range(access.stride1_fraction, 0.0, 1.0) ||
          !valid_range(access.dense_fraction, 0.0, 1.0) ||
          !valid_range(access.dense_stride, 0.0, kMaxPerIteration)) {
        return corrupt("access statistics out of range", reader.bit_offset());
      }
      access.group = ir::BasicGroupId(group);
      access.kind = static_cast<ir::AccessKind>(kind);
      body.accesses.push_back(access);
    }

    const std::uint32_t deps = reader.u32();
    if (deps > kMaxAppEdgesPerBody) {
      return Status::error(StatusCode::kResourceLimit,
                           "body declares " + std::to_string(deps) + " dependencies",
                           reader.bit_offset());
    }
    if (static_cast<std::uint64_t>(deps) * 8 > reader.remaining()) {
      return Status::error(StatusCode::kTruncated,
                           "declared dependency count exceeds the section payload",
                           reader.bit_offset());
    }
    body.deps.reserve(deps);
    for (std::uint32_t d = 0; d < deps; ++d) {
      const std::uint32_t from = reader.u32();
      const std::uint32_t to = reader.u32();
      if (reader.overrun()) return truncated(reader, "a dependency record");
      if (from >= accesses || to >= accesses || from == to) {
        return corrupt("dependency endpoints out of range", reader.bit_offset());
      }
      body.deps.emplace_back(from, to);
    }
    if (!deps_acyclic(body.accesses.size(), body.deps)) {
      return corrupt("cyclic dependency skeleton in body '" + body.name + "'",
                     reader.bit_offset());
    }

    const std::uint32_t cos = reader.u32();
    if (cos > kMaxAppEdgesPerBody) {
      return Status::error(StatusCode::kResourceLimit,
                           "body declares " + std::to_string(cos) + " co-accesses",
                           reader.bit_offset());
    }
    if (static_cast<std::uint64_t>(cos) * 16 > reader.remaining()) {
      return Status::error(StatusCode::kTruncated,
                           "declared co-access count exceeds the section payload",
                           reader.bit_offset());
    }
    body.co_accesses.reserve(cos);
    for (std::uint32_t c = 0; c < cos; ++c) {
      ir::CoAccess co;
      co.access_a = reader.u32();
      co.access_b = reader.u32();
      co.pairs_per_iteration = reader.f64();
      if (reader.overrun()) return truncated(reader, "a co-access record");
      if (co.access_a >= accesses || co.access_b >= accesses ||
          co.access_a == co.access_b) {
        return corrupt("co-access endpoints out of range", reader.bit_offset());
      }
      if (!valid_range(co.pairs_per_iteration, 0.0, 1e18)) {
        return corrupt("co-access count out of range", reader.bit_offset());
      }
      body.co_accesses.push_back(co);
    }
    app.add_body(std::move(body));
  }
  return Status{};
}

[[nodiscard]] Status parse_reuse(ByteReader& reader, ir::Application& app) {
  const std::uint32_t count = reader.u32();
  const auto group_count = static_cast<std::uint32_t>(app.group_count());
  if (count > group_count) {
    return corrupt("more reuse profiles than groups", reader.bit_offset());
  }
  std::int64_t last_group = -1;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t group = reader.u32();
    const std::uint32_t windows = reader.u32();
    if (reader.overrun()) return truncated(reader, "a reuse profile header");
    if (group >= group_count) {
      return corrupt("reuse profile for unknown group", reader.bit_offset());
    }
    // Strictly ascending group ids: unique profiles, canonical encoding.
    if (static_cast<std::int64_t>(group) <= last_group) {
      return corrupt("reuse profiles out of order", reader.bit_offset());
    }
    last_group = group;
    if (windows > kMaxAppReuseWindows) {
      return Status::error(StatusCode::kResourceLimit,
                           "reuse profile declares " + std::to_string(windows) +
                               " windows",
                           reader.bit_offset());
    }
    if (static_cast<std::uint64_t>(windows) * 16 > reader.remaining()) {
      return Status::error(StatusCode::kTruncated,
                           "declared window count exceeds the section payload",
                           reader.bit_offset());
    }
    ir::ReuseProfile profile;
    profile.windows.reserve(windows);
    std::uint64_t last_words = 0;
    for (std::uint32_t w = 0; w < windows; ++w) {
      ir::WindowMisses window;
      window.window_words = reader.u64();
      window.misses_per_frame = reader.f64();
      if (reader.overrun()) return truncated(reader, "a reuse window record");
      if (w > 0 && window.window_words < last_words) {
        return corrupt("reuse windows not sorted by capacity", reader.bit_offset());
      }
      last_words = window.window_words;
      if (!valid_range(window.misses_per_frame, 0.0, 1e18)) {
        return corrupt("reuse miss count out of range", reader.bit_offset());
      }
      profile.windows.push_back(window);
    }
    app.set_reuse_profile(ir::BasicGroupId(group), std::move(profile));
  }
  return Status{};
}

}  // namespace

std::vector<std::uint8_t> serialize(const ir::Application& app) {
  ByteWriter name_section;
  DTSE_CHECK(app.name().size() <= kMaxAppNameBytes, "application name exceeds the cap");
  name_section.string(app.name());

  ByteWriter groups_section;
  write_groups(app, groups_section);
  ByteWriter bodies_section;
  write_bodies(app, bodies_section);
  ByteWriter reuse_section;
  write_reuse(app, reuse_section);

  const ByteWriter* sections[kSectionCount] = {&name_section, &groups_section,
                                               &bodies_section, &reuse_section};
  std::uint64_t payload = 0;
  for (const auto* section : sections) payload += section->size();
  DTSE_CHECK(payload <= 0xFFFFFFFFull, "container payload exceeds 4 GiB");

  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u16(kAppContainerVersion);
  out.u16(kSectionCount);
  out.u32(static_cast<std::uint32_t>(payload));
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    out.u32(kTags[i]);
    out.u32(static_cast<std::uint32_t>(sections[i]->size()));
    out.u64(fnv1a(sections[i]->bytes().data(), sections[i]->size()));
  }
  for (const auto* section : sections) {
    out.raw(section->bytes().data(), section->size());
  }
  return out.take();
}

support::Result<ir::Application> try_deserialize_application(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kAppHeaderBytes) {
    return Status::error(StatusCode::kTruncated,
                         "container of " + std::to_string(bytes.size()) +
                             " bytes is shorter than the " +
                             std::to_string(kAppHeaderBytes) + "-byte header",
                         static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  ByteReader header(bytes.data(), bytes.size());
  std::uint8_t magic[4];
  for (auto& b : magic) b = header.u8();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::error(StatusCode::kMalformedHeader,
                         "bad container magic (expected \"APP1\")", 0);
  }
  const std::uint16_t version = header.u16();
  if (version != kAppContainerVersion) {
    return Status::error(StatusCode::kMalformedHeader,
                         "unsupported container version " + std::to_string(version),
                         header.bit_offset());
  }
  const std::uint16_t sections = header.u16();
  if (sections != kSectionCount) {
    return Status::error(StatusCode::kMalformedHeader,
                         "expected " + std::to_string(kSectionCount) +
                             " sections, container declares " + std::to_string(sections),
                         header.bit_offset());
  }
  const std::uint32_t declared_payload = header.u32();

  struct SectionEntry {
    std::uint32_t tag = 0;
    std::uint32_t length = 0;
    std::uint64_t hash = 0;
    std::size_t offset = 0;
  };
  SectionEntry table[kSectionCount];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    table[i].tag = header.u32();
    table[i].length = header.u32();
    table[i].hash = header.u64();
    if (table[i].tag != kTags[i]) {
      return Status::error(StatusCode::kMalformedHeader,
                           "unexpected section tag at index " + std::to_string(i),
                           header.bit_offset());
    }
    table[i].offset = kAppHeaderBytes + total;
    total += table[i].length;
  }
  // Declared-vs-actual reconciliation: the section lengths must sum to the
  // declared payload AND to the real container size.  No trailing bytes.
  if (total != declared_payload ||
      kAppHeaderBytes + total != static_cast<std::uint64_t>(bytes.size())) {
    return Status::error(StatusCode::kTruncated,
                         "container declares " + std::to_string(total) +
                             " payload bytes but carries " +
                             std::to_string(bytes.size() - kAppHeaderBytes),
                         static_cast<std::uint64_t>(bytes.size()) * 8);
  }
  // Content hashes before any section is trusted.
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    const auto actual = fnv1a(bytes.data() + table[i].offset, table[i].length);
    if (actual != table[i].hash) {
      return corrupt("section " + std::to_string(i) + " content hash mismatch",
                     static_cast<std::uint64_t>(table[i].offset) * 8);
    }
  }

  ir::Application app;
  using SectionParser = Status (*)(ByteReader&, ir::Application&);
  constexpr SectionParser kParsers[kSectionCount] = {parse_name, parse_groups,
                                                     parse_bodies, parse_reuse};
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    ByteReader reader(bytes.data() + table[i].offset, table[i].length);
    if (auto status = kParsers[i](reader, app); !status.ok()) {
      // Re-anchor the offset to the whole container for replayable reports.
      return Status::error(status.code(), status.message(),
                           static_cast<std::uint64_t>(table[i].offset) * 8 +
                               (status.offset_bits() == Status::kNoOffset
                                    ? 0
                                    : status.offset_bits()));
    }
    if (!reader.exhausted()) {
      return corrupt("section " + std::to_string(i) + " has trailing bytes",
                     static_cast<std::uint64_t>(table[i].offset) * 8 +
                         reader.bit_offset());
    }
  }

  // Belt-and-braces: every accepted model must satisfy the ir contract the
  // rest of the pipeline assumes.  All conditions above mirror validate(),
  // so this fires only on a parser gap — map it to a data error rather than
  // letting a ContractError escape the hardened boundary.
  try {
    app.validate();
  } catch (const std::exception& e) {
    return corrupt(std::string("deserialized model failed validation: ") + e.what(),
                   Status::kNoOffset);
  }
  return app;
}

}  // namespace dtse::persist
