#include "persist/profile_cache.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "persist/app_container.hpp"
#include "persist/file_io.hpp"
#include "support/check.hpp"

namespace dtse::persist {

namespace fs = std::filesystem;

namespace {

/// Largest entry the cache will read back into memory.  Matches the APP1
/// caps order-of-magnitude; a larger file cannot be a valid entry, so it is
/// quarantined without being loaded.
constexpr std::uint64_t kMaxEntryBytes = 64ull * 1024 * 1024;

}  // namespace

std::string CacheStats::to_string() const {
  return std::to_string(hits) + " hits, " + std::to_string(misses) + " misses, " +
         std::to_string(stores) + " stores, " + std::to_string(quarantined) +
         " quarantined, " + std::to_string(evicted) + " evicted";
}

ProfileCache::ProfileCache(std::string directory, CacheOptions options)
    : directory_(std::move(directory)), options_(options) {
  DTSE_CHECK(!directory_.empty(), "ProfileCache needs a directory path");
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_, ec) || ec) return;
  usable_ = true;
  // Sweep leftovers of stores interrupted by a crash: a `.tmp` file was
  // never renamed, so it was never observable as an entry.
  for (const auto& item : fs::directory_iterator(directory_, ec)) {
    if (ec) break;
    if (item.path().extension() == kTempSuffix) {
      std::error_code remove_ec;
      fs::remove(item.path(), remove_ec);
    }
  }
}

std::string ProfileCache::entry_path(const std::string& key) const {
  DTSE_CHECK(!key.empty() && key.find('/') == std::string::npos &&
                 key.find("..") == std::string::npos,
             "cache key must be a plain file-name token");
  return (fs::path(directory_) / (key + kCacheEntrySuffix)).string();
}

std::optional<ir::Application> ProfileCache::load(const std::string& key) {
  const auto path = entry_path(key);
  if (!usable_) {
    count(&CacheStats::misses, "misses");
    return std::nullopt;
  }
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    count(&CacheStats::misses, "misses");
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes;
  if (!read_file_bytes(path, kMaxEntryBytes, bytes)) {
    quarantine(path);
    count(&CacheStats::misses, "misses");
    return std::nullopt;
  }
  auto result = try_deserialize_application(bytes);
  if (!result.ok()) {
    // Truncated by a torn write the rename barrier should have prevented,
    // bit-rotted, or written by a different format version: set the file
    // aside for post-mortem and let the caller recompute.
    quarantine(path);
    count(&CacheStats::misses, "misses");
    return std::nullopt;
  }
  count(&CacheStats::hits, "hits");
  return result.take();
}

bool ProfileCache::store(const std::string& key, const ir::Application& app) {
  const auto path = entry_path(key);
  if (!usable_) {
    count(&CacheStats::store_failures, "store_failures");
    return false;
  }
  if (!atomic_write_file(path, serialize(app))) {
    count(&CacheStats::store_failures, "store_failures");
    return false;
  }
  count(&CacheStats::stores, "stores");
  evict_over_cap();
  return true;
}

void ProfileCache::count(std::uint64_t CacheStats::*field,
                         std::string_view counter_name) {
  ++(stats_.*field);
  obs::TelemetryRegistry::global()
      .counter("profile_cache." + std::string(counter_name))
      .add(1);
}

void ProfileCache::quarantine(const std::string& path) {
  quarantine_file(path);
  count(&CacheStats::quarantined, "quarantined");
}

void ProfileCache::evict_over_cap() {
  if (options_.max_entries == 0) return;
  std::error_code ec;
  std::vector<std::pair<fs::file_time_type, fs::path>> entries;
  for (const auto& item : fs::directory_iterator(directory_, ec)) {
    if (ec) return;
    if (item.path().extension() != kCacheEntrySuffix) continue;
    std::error_code time_ec;
    const auto mtime = fs::last_write_time(item.path(), time_ec);
    if (time_ec) continue;
    entries.emplace_back(mtime, item.path());
  }
  if (entries.size() <= options_.max_entries) return;
  std::sort(entries.begin(), entries.end());
  const std::size_t excess = entries.size() - options_.max_entries;
  for (std::size_t i = 0; i < excess; ++i) {
    std::error_code remove_ec;
    if (fs::remove(entries[i].second, remove_ec) && !remove_ec)
      count(&CacheStats::evicted, "evicted");
  }
}

}  // namespace dtse::persist
