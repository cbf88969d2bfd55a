// Tests for the persistence subsystem: the hardened APP1 application
// container (round trips, every Status arm, the canonical-encoding
// guarantee), the crash-safe integrity-checked profile cache (hit / miss /
// quarantine / eviction / torn-write recovery) — plus the cache-path
// determinism contract: a model served from a cache hit is bit-identical to
// a freshly profiled one, and so is every evaluation derived from it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "entropy/entropy_coder.hpp"
#include "ir/application.hpp"
#include "persist/app_container.hpp"
#include "persist/fnv.hpp"
#include "persist/profile_cache.hpp"
#include "support/check.hpp"
#include "support/status.hpp"
#include "workloads/profile_store.hpp"
#include "workloads/workload.hpp"

namespace dtse::persist {
namespace {

namespace fs = std::filesystem;
using support::StatusCode;

// --- fixtures ---------------------------------------------------------------

/// A model touching every APP1 feature: multiple groups (one with a forced
/// location), bodies with deps and co-accesses, and reuse profiles.
ir::Application rich_model() {
  ir::Application app("rich-model");
  const auto frame = app.add_group({"frame", 4096, 8, {}, 2});
  const auto line = app.add_group({"line", 128, 16, memlib::Location::kOnChip, 1});
  const auto coeff = app.add_group({"coeff", 64, 12, memlib::Location::kOffChip, 2});

  ir::LoopBody body;
  body.name = "filter";
  body.iterations = 512;
  body.accesses.push_back({frame, ir::AccessKind::kRead, 4.0, 0.75, 0.875, 1.0});
  body.accesses.push_back({line, ir::AccessKind::kWrite, 1.0, 1.0, 1.0, 1.0});
  body.accesses.push_back({coeff, ir::AccessKind::kRead, 2.5, 0.0, 0.5, 2.0});
  body.deps.emplace_back(0, 1);
  body.deps.emplace_back(2, 1);
  body.co_accesses.push_back({0, 2, 0.25});
  app.add_body(std::move(body));

  ir::LoopBody update;
  update.name = "update";
  update.iterations = 64;
  update.accesses.push_back({coeff, ir::AccessKind::kWrite, 1.0, 1.0, 1.0, 1.0});
  app.add_body(std::move(update));

  ir::ReuseProfile frame_reuse;
  frame_reuse.windows.push_back({16, 1800.0});
  frame_reuse.windows.push_back({64, 340.0});
  frame_reuse.windows.push_back({256, 12.5});
  app.set_reuse_profile(frame, std::move(frame_reuse));
  ir::ReuseProfile coeff_reuse;
  coeff_reuse.windows.push_back({64, 96.0});
  app.set_reuse_profile(coeff, std::move(coeff_reuse));
  return app;
}

/// Unique scratch directory per test, cleaned before use.
fs::path scratch_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / ("persist_test_" + name);
  fs::remove_all(dir);
  return dir;
}

// --- byte-patching helpers (to craft specific Status arms) -------------------

std::uint32_t rd_u32(const std::vector<std::uint8_t>& b, std::size_t off) {
  return (std::uint32_t{b[off]} << 24) | (std::uint32_t{b[off + 1]} << 16) |
         (std::uint32_t{b[off + 2]} << 8) | std::uint32_t{b[off + 3]};
}

void wr_u32(std::vector<std::uint8_t>& b, std::size_t off, std::uint32_t v) {
  b[off] = static_cast<std::uint8_t>(v >> 24);
  b[off + 1] = static_cast<std::uint8_t>(v >> 16);
  b[off + 2] = static_cast<std::uint8_t>(v >> 8);
  b[off + 3] = static_cast<std::uint8_t>(v);
}

void wr_u64(std::vector<std::uint8_t>& b, std::size_t off, std::uint64_t v) {
  wr_u32(b, off, static_cast<std::uint32_t>(v >> 32));
  wr_u32(b, off + 4, static_cast<std::uint32_t>(v));
}

struct SectionSpan {
  std::size_t offset = 0;
  std::uint32_t length = 0;
};

SectionSpan app_section(const std::vector<std::uint8_t>& b, std::size_t index) {
  SectionSpan span;
  span.offset = kAppHeaderBytes;
  for (std::size_t i = 0; i < index; ++i) span.offset += rd_u32(b, 12 + 16 * i + 4);
  span.length = rd_u32(b, 12 + 16 * index + 4);
  return span;
}

/// Recomputes section `index`'s table hash after the test edited its bytes —
/// so the edit reaches the *parser* instead of tripping the hash gate.
void rehash_app_section(std::vector<std::uint8_t>& b, std::size_t index) {
  const auto span = app_section(b, index);
  wr_u64(b, 12 + 16 * index + 8, fnv1a(b.data() + span.offset, span.length));
}

void write_raw(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

std::vector<std::uint8_t> read_raw(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// --- APP1 container ----------------------------------------------------------

TEST(AppContainer, RoundTripsARichModel) {
  const auto app = rich_model();
  const auto bytes = serialize(app);
  auto result = try_deserialize_application(bytes);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& back = result.value();

  EXPECT_EQ(back.name(), app.name());
  ASSERT_EQ(back.group_count(), app.group_count());
  ASSERT_EQ(back.body_count(), app.body_count());
  for (const auto id : app.group_ids()) {
    const auto& a = app.group(id);
    const auto& b = back.group(id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.words, b.words);
    EXPECT_EQ(a.bitwidth, b.bitwidth);
    EXPECT_EQ(a.forced_location, b.forced_location);
    EXPECT_EQ(a.hierarchy_layer, b.hierarchy_layer);
  }
  for (const auto id : app.body_ids()) {
    const auto& a = app.body(id);
    const auto& b = back.body(id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    EXPECT_EQ(a.deps, b.deps);
    for (std::size_t i = 0; i < a.accesses.size(); ++i) {
      EXPECT_EQ(a.accesses[i].group, b.accesses[i].group);
      EXPECT_EQ(a.accesses[i].kind, b.accesses[i].kind);
      EXPECT_EQ(a.accesses[i].per_iteration, b.accesses[i].per_iteration);
      EXPECT_EQ(a.accesses[i].stride1_fraction, b.accesses[i].stride1_fraction);
      EXPECT_EQ(a.accesses[i].dense_fraction, b.accesses[i].dense_fraction);
      EXPECT_EQ(a.accesses[i].dense_stride, b.accesses[i].dense_stride);
    }
    ASSERT_EQ(a.co_accesses.size(), b.co_accesses.size());
  }
  const auto* reuse = back.reuse_profile(ir::BasicGroupId(0));
  ASSERT_NE(reuse, nullptr);
  ASSERT_EQ(reuse->windows.size(), 3u);
  EXPECT_EQ(reuse->windows[1].window_words, 64u);
  EXPECT_EQ(reuse->windows[1].misses_per_frame, 340.0);
  EXPECT_NO_THROW(back.validate());
}

TEST(AppContainer, EncodingIsCanonical) {
  const auto app = rich_model();
  const auto bytes = serialize(app);
  // Deterministic: serializing the same model twice gives identical bytes.
  EXPECT_EQ(serialize(app), bytes);
  // Accepted containers re-serialize to identical bytes (the fingerprinting
  // property the profile cache relies on).
  auto result = try_deserialize_application(bytes);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(serialize(result.value()), bytes);
}

TEST(AppContainer, RoundTripsAMinimalModel) {
  ir::Application app("tiny");
  app.add_group({"only", 8, 8, {}, 0});
  const auto bytes = serialize(app);
  auto result = try_deserialize_application(bytes);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result.value().name(), "tiny");
  EXPECT_EQ(result.value().body_count(), 0u);
  EXPECT_EQ(serialize(result.value()), bytes);
}

TEST(AppContainer, RejectsShortAndForeignHeaders) {
  const auto bytes = serialize(rich_model());

  auto empty = try_deserialize_application({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kTruncated);

  std::vector<std::uint8_t> stub(bytes.begin(), bytes.begin() + 20);
  auto short_header = try_deserialize_application(stub);
  ASSERT_FALSE(short_header.ok());
  EXPECT_EQ(short_header.status().code(), StatusCode::kTruncated);

  auto magic = bytes;
  magic[0] ^= 0xFF;
  auto bad_magic = try_deserialize_application(magic);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kMalformedHeader);

  auto version = bytes;
  version[5] = 99;  // u16 version lives at offset 4
  auto bad_version = try_deserialize_application(version);
  ASSERT_FALSE(bad_version.ok());
  EXPECT_EQ(bad_version.status().code(), StatusCode::kMalformedHeader);

  auto sections = bytes;
  sections[7] = 9;  // u16 section count lives at offset 6
  auto bad_sections = try_deserialize_application(sections);
  ASSERT_FALSE(bad_sections.ok());
  EXPECT_EQ(bad_sections.status().code(), StatusCode::kMalformedHeader);

  auto tag = bytes;
  tag[12] ^= 0x01;  // first table entry's tag
  auto bad_tag = try_deserialize_application(tag);
  ASSERT_FALSE(bad_tag.ok());
  EXPECT_EQ(bad_tag.status().code(), StatusCode::kMalformedHeader);
}

TEST(AppContainer, ReconcilesDeclaredAgainstActualLength) {
  const auto bytes = serialize(rich_model());

  auto padded = bytes;
  padded.push_back(0);  // trailing garbage
  auto trailing = try_deserialize_application(padded);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kTruncated);

  auto cut = bytes;
  cut.pop_back();  // short payload
  auto shortened = try_deserialize_application(cut);
  ASSERT_FALSE(shortened.ok());
  EXPECT_EQ(shortened.status().code(), StatusCode::kTruncated);

  auto lied = bytes;
  wr_u32(lied, 8, rd_u32(lied, 8) + 4);  // declared payload disagrees with table
  auto mismatch = try_deserialize_application(lied);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kTruncated);
}

TEST(AppContainer, ContentHashCatchesSilentPayloadCorruption) {
  const auto bytes = serialize(rich_model());
  for (const std::size_t section : {0u, 1u, 2u, 3u}) {
    const auto span = app_section(bytes, section);
    ASSERT_GT(span.length, 0u);
    auto rotted = bytes;
    rotted[span.offset + span.length / 2] ^= 0x10;
    auto result = try_deserialize_application(rotted);
    ASSERT_FALSE(result.ok()) << "section " << section;
    EXPECT_EQ(result.status().code(), StatusCode::kCorrupt) << "section " << section;
  }
}

TEST(AppContainer, CapsDeclaredCountsBeforeAllocating) {
  auto bytes = serialize(rich_model());
  const auto groups = app_section(bytes, 1);
  wr_u32(bytes, groups.offset, kMaxAppGroups + 1);
  rehash_app_section(bytes, 1);
  auto result = try_deserialize_application(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceLimit);

  // A count under the cap but over the section payload is a truncation.
  auto lying = serialize(rich_model());
  wr_u32(lying, groups.offset, 50'000);
  rehash_app_section(lying, 1);
  auto truncated = try_deserialize_application(lying);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kTruncated);
}

TEST(AppContainer, RejectsSemanticallyImpossibleRecords) {
  // Zero-word group: GRPS payload is [u32 count][u16 len]["frame"][u64 words]...
  auto zero_words = serialize(rich_model());
  const auto groups = app_section(zero_words, 1);
  const std::size_t words_off = groups.offset + 4 + 2 + 5;  // count, len, "frame"
  wr_u64(zero_words, words_off, 0);
  rehash_app_section(zero_words, 1);
  auto result = try_deserialize_application(zero_words);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorrupt);

  // Non-finite double: corrupt the first reuse window's miss count to NaN.
  auto nan_reuse = serialize(rich_model());
  const auto reuse = app_section(nan_reuse, 3);
  // REUS payload: [u32 entries][u32 group][u32 windows][u64 words][f64 misses]
  wr_u64(nan_reuse, reuse.offset + 4 + 4 + 4 + 8, 0x7FF8000000000000ull);
  rehash_app_section(nan_reuse, 3);
  auto nan_result = try_deserialize_application(nan_reuse);
  ASSERT_FALSE(nan_result.ok());
  EXPECT_EQ(nan_result.status().code(), StatusCode::kCorrupt);
}

TEST(AppContainer, SerializeEnforcesCapsAsContracts) {
  ir::Application app("too-long-name");
  app.set_name(std::string(kMaxAppNameBytes + 1, 'x'));
  EXPECT_THROW((void)serialize(app), support::ContractError);
}

// --- profile cache -----------------------------------------------------------

TEST(ProfileCache, MissThenStoreThenIntegrityCheckedHit) {
  ProfileCache cache(scratch_dir("hit").string());
  const auto app = rich_model();

  EXPECT_FALSE(cache.load("deadbeef00000001").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  ASSERT_TRUE(cache.store("deadbeef00000001", app));
  auto hit = cache.load("deadbeef00000001");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(serialize(*hit), serialize(app));  // bit-identical model
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().quarantined, 0u);
}

TEST(ProfileCache, QuarantinesCorruptEntriesAndRecovers) {
  const auto dir = scratch_dir("quarantine");
  ProfileCache cache(dir.string());
  const auto app = rich_model();
  ASSERT_TRUE(cache.store("feedface00000002", app));

  // Bit rot in place: flip one payload byte of the committed entry.
  const auto entry = dir / ("feedface00000002" + std::string(kCacheEntrySuffix));
  auto bytes = read_raw(entry);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x20;
  write_raw(entry, bytes);

  EXPECT_FALSE(cache.load("feedface00000002").has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_TRUE(fs::exists(entry.string() + ".quarantined"));
  EXPECT_FALSE(fs::exists(entry));

  // The sweep recomputes and overwrites; the cache serves again.
  ASSERT_TRUE(cache.store("feedface00000002", app));
  EXPECT_TRUE(cache.load("feedface00000002").has_value());
}

TEST(ProfileCache, SurvivesAMidWriteCrash) {
  const auto dir = scratch_dir("crash");
  {
    ProfileCache cache(dir.string());
    ASSERT_TRUE(cache.store("cafef00d00000003", rich_model()));
  }
  // Simulate a crash mid-commit of an *update*: a half-written temp file
  // next to the committed entry (the atomic rename never happened).
  const auto entry = dir / ("cafef00d00000003" + std::string(kCacheEntrySuffix));
  const auto full = read_raw(entry);
  std::vector<std::uint8_t> torn(full.begin(), full.begin() + full.size() / 3);
  write_raw(fs::path(entry.string() + ".tmp"), torn);

  // Re-open after the "crash": the temp leftover is swept, the committed
  // entry is intact and still serves.
  ProfileCache reopened(dir.string());
  EXPECT_FALSE(fs::exists(entry.string() + ".tmp"));
  auto hit = reopened.load("cafef00d00000003");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(serialize(*hit), full);

  // And a torn final file (crash with no rename barrier, e.g. a copy made
  // with plain tools) is quarantined, never trusted.
  write_raw(entry, torn);
  EXPECT_FALSE(reopened.load("cafef00d00000003").has_value());
  EXPECT_EQ(reopened.stats().quarantined, 1u);
}

TEST(ProfileCache, QuarantinesStaleFormatVersions) {
  const auto dir = scratch_dir("stale");
  ProfileCache cache(dir.string());
  ASSERT_TRUE(cache.store("0123456789abcdef", rich_model()));

  const auto entry = dir / ("0123456789abcdef" + std::string(kCacheEntrySuffix));
  auto bytes = read_raw(entry);
  bytes[5] = static_cast<std::uint8_t>(kAppContainerVersion + 1);  // future version
  write_raw(entry, bytes);

  EXPECT_FALSE(cache.load("0123456789abcdef").has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
}

TEST(ProfileCache, EvictsOldestEntriesOverTheCap) {
  const auto dir = scratch_dir("evict");
  CacheOptions options;
  options.max_entries = 2;
  ProfileCache cache(dir.string(), options);
  const auto app = rich_model();

  ASSERT_TRUE(cache.store("aaaaaaaaaaaaaaa1", app));
  ASSERT_TRUE(cache.store("aaaaaaaaaaaaaaa2", app));
  // Make the first entry unambiguously the oldest (filesystem mtime
  // granularity can make back-to-back stores tie).
  fs::last_write_time(dir / ("aaaaaaaaaaaaaaa1" + std::string(kCacheEntrySuffix)),
                      fs::file_time_type::clock::now() - std::chrono::hours(1));
  ASSERT_TRUE(cache.store("aaaaaaaaaaaaaaa3", app));

  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_FALSE(
      fs::exists(dir / ("aaaaaaaaaaaaaaa1" + std::string(kCacheEntrySuffix))));
  EXPECT_TRUE(cache.load("aaaaaaaaaaaaaaa3").has_value());
}

TEST(ProfileCache, RejectsPathTraversalKeysAsContractBugs) {
  ProfileCache cache(scratch_dir("keys").string());
  EXPECT_THROW((void)cache.load("../escape"), support::ContractError);
  EXPECT_THROW((void)cache.load("a/b"), support::ContractError);
  EXPECT_THROW((void)cache.load(""), support::ContractError);
}

TEST(ProfileCache, DegradesToAllMissWhenTheDirectoryIsUnusable) {
  // A file where the directory should be: the cache cannot open, and every
  // operation degrades instead of throwing.
  const auto blocker = scratch_dir("blocked");
  fs::create_directories(blocker.parent_path());
  write_raw(blocker, {0x00});
  ProfileCache cache(blocker.string());
  EXPECT_FALSE(cache.load("0000000000000000").has_value());
  EXPECT_FALSE(cache.store("0000000000000000", rich_model()));
  EXPECT_EQ(cache.stats().store_failures, 1u);
}

// --- cache key contract --------------------------------------------------------

TEST(ProfileStore, KeysSeparateEveryRequestDimension) {
  workloads::WorkloadOptions base;
  base.profile_size = 64;
  const auto key = workloads::profile_cache_key("btpc", base);
  EXPECT_EQ(key.size(), 16u);
  EXPECT_EQ(workloads::profile_cache_key("btpc", base), key);  // deterministic

  auto other = base;
  other.profile_size = 128;
  EXPECT_NE(workloads::profile_cache_key("btpc", other), key);
  other = base;
  other.seed = 43;
  EXPECT_NE(workloads::profile_cache_key("btpc", other), key);
  other = base;
  other.entropy_backend = entropy::Backend::kRice;
  EXPECT_NE(workloads::profile_cache_key("btpc", other), key);
  EXPECT_NE(workloads::profile_cache_key("hyperspec", base), key);
}

// The determinism satellite: for every registry workload (and both entropy
// backends of each codec workload), the model served from a cache hit is
// bit-identical to the freshly profiled one, and the Evaluation built from
// it reproduces the same final_cost triple bit-for-bit.
TEST(ProfileStore, CacheHitModelsEvaluateBitIdenticalToFresh) {
  struct Case {
    const char* workload;
    std::optional<entropy::Backend> backend;
  };
  const Case cases[] = {
      {"btpc", entropy::Backend::kRice},
      {"btpc", entropy::Backend::kExpGolomb},
      {"hyperspec", entropy::Backend::kExpGolomb},
      {"hyperspec", entropy::Backend::kRans},
      {"line_buffer", std::nullopt},
      {"motion", std::nullopt},
  };
  const core::Explorer explorer{memlib::MemoryLibrary{}};
  ProfileCache cache(scratch_dir("determinism").string());

  for (const auto& test_case : cases) {
    const auto* workload = workloads::find_workload(test_case.workload);
    ASSERT_NE(workload, nullptr) << test_case.workload;
    workloads::WorkloadOptions options;
    options.profile_size = 64;
    options.entropy_backend = test_case.backend;

    const auto fresh = workloads::profile_cached(*workload, options, &cache);
    const auto before_hits = cache.stats().hits;
    const auto cached = workloads::profile_cached(*workload, options, &cache);
    ASSERT_EQ(cache.stats().hits, before_hits + 1)
        << test_case.workload << ": second profile must be a cache hit";
    EXPECT_EQ(serialize(cached), serialize(fresh))
        << test_case.workload << ": cache hit must be bit-identical";

    const auto eval_fresh = explorer.evaluate(fresh);
    const auto eval_cached = explorer.evaluate(cached);
    EXPECT_EQ(eval_cached.feasible, eval_fresh.feasible) << test_case.workload;
    EXPECT_EQ(eval_cached.spare_cycles, eval_fresh.spare_cycles) << test_case.workload;
    EXPECT_EQ(eval_cached.summary.onchip_area_mm2, eval_fresh.summary.onchip_area_mm2)
        << test_case.workload;
    EXPECT_EQ(eval_cached.summary.onchip_power_mw, eval_fresh.summary.onchip_power_mw)
        << test_case.workload;
    EXPECT_EQ(eval_cached.summary.offchip_power_mw, eval_fresh.summary.offchip_power_mw)
        << test_case.workload;
  }
}

}  // namespace
}  // namespace dtse::persist
