// Tests for the persistence subsystem: the hardened APP1 application
// container (round trips, every Status arm, the canonical-encoding
// guarantee), the crash-safe integrity-checked profile cache (hit / miss /
// quarantine / eviction / torn-write recovery), the SWP1 sweep checkpoint
// and the resumable shared sweep built on them — plus the cache-path
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
#include "persist/sweep_checkpoint.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"
#include "support/status.hpp"
#include "workloads/profile_store.hpp"
#include "workloads/shared_sweep.hpp"
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
  // property the profile cache and sweep checkpoints rely on).
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

// --- sweep checkpoint ----------------------------------------------------------

SweepCheckpoint sample_checkpoint() {
  SweepCheckpoint checkpoint;
  checkpoint.fingerprint = 0x1234567890abcdefull;
  checkpoint.rows.push_back({4, true, 1000, {1.5, 2.5, 3.5}, "4 on-chip memories"});
  checkpoint.rows.push_back({6, false, 0, {0.0, 0.0, 9.75}, "6 on-chip memories"});
  return checkpoint;
}

TEST(SweepCheckpoint, RoundTripsAndStaysCanonical) {
  const auto checkpoint = sample_checkpoint();
  const auto bytes = serialize(checkpoint);
  auto result = try_deserialize_checkpoint(bytes);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const auto& back = result.value();
  EXPECT_EQ(back.fingerprint, checkpoint.fingerprint);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.rows[0].count, 4);
  EXPECT_TRUE(back.rows[0].feasible);
  EXPECT_EQ(back.rows[0].spare_cycles, 1000u);
  EXPECT_EQ(back.rows[0].summary.onchip_area_mm2, 1.5);
  EXPECT_EQ(back.rows[1].label, "6 on-chip memories");
  EXPECT_EQ(serialize(back), bytes);
}

TEST(SweepCheckpoint, RejectsEveryMalformedArm) {
  const auto bytes = serialize(sample_checkpoint());

  auto empty = try_deserialize_checkpoint({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kTruncated);

  auto magic = bytes;
  magic[0] ^= 0x01;
  EXPECT_EQ(try_deserialize_checkpoint(magic).status().code(),
            StatusCode::kMalformedHeader);

  auto version = bytes;
  version[5] = 77;
  EXPECT_EQ(try_deserialize_checkpoint(version).status().code(),
            StatusCode::kMalformedHeader);

  auto pad = bytes;
  pad[7] = 1;
  EXPECT_EQ(try_deserialize_checkpoint(pad).status().code(),
            StatusCode::kMalformedHeader);

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(try_deserialize_checkpoint(trailing).status().code(),
            StatusCode::kTruncated);

  auto rotted = bytes;
  rotted.back() ^= 0x40;  // payload content under the hash
  EXPECT_EQ(try_deserialize_checkpoint(rotted).status().code(), StatusCode::kCorrupt);

  auto rows = bytes;
  wr_u32(rows, 16, kMaxCheckpointRows + 1);
  EXPECT_EQ(try_deserialize_checkpoint(rows).status().code(),
            StatusCode::kResourceLimit);
}

TEST(SweepCheckpoint, LoadQuarantinesCorruptFilesAndIgnoresStaleFingerprints) {
  const auto dir = scratch_dir("checkpoint");
  fs::create_directories(dir);
  const auto path = (dir / "sweep.swp1").string();
  const auto checkpoint = sample_checkpoint();
  ASSERT_TRUE(save_checkpoint(path, checkpoint));

  // Fingerprint mismatch: no quarantine (the file is valid, just for a
  // different sweep recipe) and no resume.
  EXPECT_FALSE(load_checkpoint(path, checkpoint.fingerprint + 1).has_value());
  EXPECT_TRUE(fs::exists(path));

  auto loaded = load_checkpoint(path, checkpoint.fingerprint);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->rows.size(), 2u);

  // Corrupt file: quarantined, next load is a clean miss.
  auto bytes = read_raw(path);
  bytes[bytes.size() - 3] ^= 0x08;
  write_raw(path, bytes);
  EXPECT_FALSE(load_checkpoint(path, checkpoint.fingerprint).has_value());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  EXPECT_FALSE(load_checkpoint(path, checkpoint.fingerprint).has_value());
}

// --- resumable shared sweep -----------------------------------------------------

workloads::WorkloadOptions sweep_options() {
  workloads::WorkloadOptions options;
  options.profile_size = 64;
  return options;
}

TEST(ResumableSweep, ResumesCompletedRowsAndExtendsTheCountList) {
  const auto dir = scratch_dir("resume");
  fs::create_directories(dir);
  const core::Explorer explorer{memlib::MemoryLibrary{}};
  const std::vector<const workloads::Workload*> roster = {
      workloads::find_workload("line_buffer")};

  workloads::SweepPersistence persistence;
  persistence.checkpoint_path = (dir / "sweep.swp1").string();

  const auto first = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                 {4, 6}, {}, persistence);
  ASSERT_EQ(first.variants.size(), 2u);
  EXPECT_EQ(first.resumed, 0u);
  EXPECT_TRUE(fs::exists(persistence.checkpoint_path));

  // Second run adds a count: the two finished rows resume (bit-identical
  // cost triples), only the new count is evaluated.
  const auto second = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                  {4, 6, 8}, {}, persistence);
  ASSERT_EQ(second.variants.size(), 3u);
  EXPECT_EQ(second.resumed, 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(second.variants[i].label, first.variants[i].label);
    EXPECT_EQ(second.variants[i].eval.feasible, first.variants[i].eval.feasible);
    EXPECT_EQ(second.variants[i].eval.spare_cycles,
              first.variants[i].eval.spare_cycles);
    EXPECT_EQ(second.variants[i].eval.summary.onchip_area_mm2,
              first.variants[i].eval.summary.onchip_area_mm2);
    EXPECT_EQ(second.variants[i].eval.summary.onchip_power_mw,
              first.variants[i].eval.summary.onchip_power_mw);
    EXPECT_EQ(second.variants[i].eval.summary.offchip_power_mw,
              first.variants[i].eval.summary.offchip_power_mw);
  }
  EXPECT_EQ(second.variants[2].label, "8 on-chip memories");
}

TEST(ResumableSweep, CancelledRowsAreNotCheckpointedAndRecompute) {
  const auto dir = scratch_dir("cancelled");
  fs::create_directories(dir);
  const core::Explorer explorer{memlib::MemoryLibrary{}};
  const std::vector<const workloads::Workload*> roster = {
      workloads::find_workload("line_buffer")};

  workloads::SweepPersistence persistence;
  persistence.checkpoint_path = (dir / "sweep.swp1").string();

  // A pre-cancelled token models a run killed before its rows completed:
  // every point degrades (timed_out) and nothing may become durable.
  support::CancellationToken killed;
  killed.cancel();
  core::ExplorerOptions cancelled_options;
  cancelled_options.cancel = &killed;
  const auto aborted = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                   {4}, cancelled_options, persistence);
  ASSERT_EQ(aborted.variants.size(), 1u);
  EXPECT_TRUE(aborted.variants[0].eval.timed_out ||
              !aborted.variants[0].eval.error.empty());
  EXPECT_EQ(aborted.resumed, 0u);

  // The relaunched run finds no resumable row and computes it cleanly.
  const auto relaunched = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                      {4}, {}, persistence);
  ASSERT_EQ(relaunched.variants.size(), 1u);
  EXPECT_EQ(relaunched.resumed, 0u);
  EXPECT_TRUE(relaunched.variants[0].eval.error.empty());

  // And now the row is durable: a third run resumes it.
  const auto resumed = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                   {4}, {}, persistence);
  EXPECT_EQ(resumed.resumed, 1u);
}

TEST(ResumableSweep, FingerprintBindsTheCheckpointToTheRecipe) {
  const auto dir = scratch_dir("fingerprint");
  fs::create_directories(dir);
  const core::Explorer explorer{memlib::MemoryLibrary{}};
  const std::vector<const workloads::Workload*> roster = {
      workloads::find_workload("line_buffer")};

  workloads::SweepPersistence persistence;
  persistence.checkpoint_path = (dir / "sweep.swp1").string();
  const auto first = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                 {4}, {}, persistence);
  EXPECT_EQ(first.resumed, 0u);

  // Same roster, different cycle budget: the checkpoint must not resume.
  // Its completed row then overwrites the file — one checkpoint holds one
  // recipe — so the original recipe starts fresh too before becoming
  // resumable again.
  core::ExplorerOptions tighter;
  tighter.storage_budget_cycles = 10'000'000;
  const auto other = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                 {4}, tighter, persistence);
  EXPECT_EQ(other.resumed, 0u);
  const auto tighter_again = workloads::run_shared_sweep(roster, sweep_options(),
                                                         explorer, {4}, tighter,
                                                         persistence);
  EXPECT_EQ(tighter_again.resumed, 1u);

  const auto back = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                {4}, {}, persistence);
  EXPECT_EQ(back.resumed, 0u);
  const auto back_again = workloads::run_shared_sweep(roster, sweep_options(),
                                                      explorer, {4}, {}, persistence);
  EXPECT_EQ(back_again.resumed, 1u);
}

TEST(ResumableSweep, ProfileCachePluggedIntoStagingServesTheSecondRun) {
  const auto dir = scratch_dir("staging_cache");
  const core::Explorer explorer{memlib::MemoryLibrary{}};
  const std::vector<const workloads::Workload*> roster = {
      workloads::find_workload("line_buffer")};

  ProfileCache cache((dir / "profiles").string());
  workloads::SweepPersistence persistence;
  persistence.profile_cache = &cache;

  const auto first = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                 {4}, {}, persistence);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto second = workloads::run_shared_sweep(roster, sweep_options(), explorer,
                                                  {4}, {}, persistence);
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_EQ(first.variants.size(), second.variants.size());
  EXPECT_EQ(second.variants[0].eval.summary.onchip_area_mm2,
            first.variants[0].eval.summary.onchip_area_mm2);
  EXPECT_EQ(second.variants[0].eval.summary.onchip_power_mw,
            first.variants[0].eval.summary.onchip_power_mw);
  EXPECT_EQ(second.variants[0].eval.summary.offchip_power_mw,
            first.variants[0].eval.summary.offchip_power_mw);
}

TEST(ResumableSweep, FingerprintIsDeterministic) {
  const auto app = rich_model();
  EXPECT_EQ(workloads::sweep_fingerprint(app, {}), workloads::sweep_fingerprint(app, {}));
  core::ExplorerOptions tighter;
  tighter.storage_budget_cycles = 1'000'000;
  EXPECT_NE(workloads::sweep_fingerprint(app, tighter),
            workloads::sweep_fingerprint(app, {}));
}

}  // namespace
}  // namespace dtse::persist
