#include "trace/recorder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace dtse::trace {

namespace {

constexpr ArrayId array_of(std::uint32_t slot) { return slot >> 1; }
constexpr ir::AccessKind kind_of(std::uint32_t slot) {
  return static_cast<ir::AccessKind>(slot & 1u);
}

/// splitmix64 finalizer: the index hash of the reuse simulator's flat map.
constexpr std::uint64_t mix_index(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

// --- ReuseSim ----------------------------------------------------------------

void ReuseSim::init(std::vector<std::uint64_t> capacities) {
  *this = ReuseSim{};
  capacities_ = std::move(capacities);
  if (capacities_.empty()) return;
  DTSE_CHECK(std::adjacent_find(capacities_.begin(), capacities_.end(),
                                std::greater_equal<>{}) == capacities_.end(),
             "reuse capacities must be strictly increasing");
  const std::uint64_t tracked = capacities_.back();
  DTSE_CHECK(capacities_.front() > 0 && tracked < (std::uint64_t{1} << 30),
             "reuse window capacity out of range");
  reads_by_rung_.assign(capacities_.size() + 1, 0);
  bounds_.assign(capacities_.size(), 0);
  // Flat map sized at twice the tracked indices (load factor <= 0.5).
  std::uint64_t map_size = 2;
  while (map_size < 2 * tracked) map_size <<= 1;
  map_mask_ = map_size - 1;
  map_keys_.assign(map_size, kEmptyKey);
  map_vals_.assign(map_size, 0);
  slot_keys_.assign(2 * tracked, 0);
  live_bits_.assign((2 * tracked + 63) / 64, 0);
}

void ReuseSim::touch(std::uint64_t index) {
  if (next_slot_ == slot_keys_.size()) compact();
  const std::uint32_t slot = next_slot_++;
  slot_keys_[slot] = index;
  live_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  // Each window keeps the `c_r` highest live slots; the new slot joins all of
  // them, so a full window that also keeps the read's previous slot loses
  // nothing, and every other full window drops its boundary slot.
  std::size_t rung = capacities_.size();  // untracked: misses every window
  std::size_t advance = full_;
  if (auto* found = map_find(index)) {
    const std::uint32_t last = *found;
    *found = slot;
    live_bits_[last >> 6] &= ~(std::uint64_t{1} << (last & 63));
    // Not-full windows have boundary 0, and the largest window holds every
    // tracked slot, so this stops.
    rung = 0;
    while (last < bounds_[rung]) ++rung;
    // Windows whose boundary was `last` lost exactly that slot.
    advance = rung;
    while (advance < full_ && bounds_[advance] == last) ++advance;
  } else if (live_ == capacities_.back()) {
    // Evict the least recently read tracked index: the largest window's
    // boundary slot.
    const std::uint32_t oldest = bounds_.back();
    map_erase(slot_keys_[oldest]);
    live_bits_[oldest >> 6] &= ~(std::uint64_t{1} << (oldest & 63));
    map_insert(index, slot);
  } else {
    ++live_;
    map_insert(index, slot);
    // A window that just filled holds every live slot.
    if (live_ == capacities_[full_]) bounds_[full_++] = live_from(0);
  }
  for (std::size_t r = 0; r < advance; ++r) bounds_[r] = live_from(bounds_[r] + 1);
  ++reads_by_rung_[rung];
}

std::uint64_t ReuseSim::misses(std::size_t window) const {
  DTSE_CHECK(window < capacities_.size(), "unknown reuse window");
  std::uint64_t total = 0;
  for (std::size_t rung = window + 1; rung < reads_by_rung_.size(); ++rung) {
    total += reads_by_rung_[rung];
  }
  return total;
}

void ReuseSim::compact() {
  std::uint32_t kept = 0;
  for (std::size_t word = 0; word < live_bits_.size(); ++word) {
    for (std::uint64_t bits = live_bits_[word]; bits != 0; bits &= bits - 1) {
      const std::uint64_t key = slot_keys_[word * 64 + std::countr_zero(bits)];
      slot_keys_[kept] = key;
      *map_find(key) = kept;
      ++kept;
    }
  }
  DTSE_DCHECK(kept == live_, "reuse slots out of sync with the index map");
  std::fill(live_bits_.begin(), live_bits_.end(), 0);
  std::fill_n(live_bits_.begin(), kept / 64, ~std::uint64_t{0});
  if (kept % 64 != 0) live_bits_[kept / 64] = (std::uint64_t{1} << (kept % 64)) - 1;
  // Live slots are now [0, kept), so a full window's `c_r` highest start at
  // kept - c_r.
  for (std::size_t r = 0; r < full_; ++r) {
    bounds_[r] = kept - static_cast<std::uint32_t>(capacities_[r]);
  }
  next_slot_ = kept;
}

std::uint32_t ReuseSim::live_from(std::uint32_t slot) const {
  std::size_t word = slot >> 6;
  std::uint64_t bits = live_bits_[word] & (~std::uint64_t{0} << (slot & 63));
  while (bits == 0) {
    ++word;
    DTSE_DCHECK(word < live_bits_.size(), "no live reuse slot after the boundary");
    bits = live_bits_[word];
  }
  return static_cast<std::uint32_t>(word * 64 + std::countr_zero(bits));
}

std::uint32_t* ReuseSim::map_find(std::uint64_t key) {
  std::uint64_t slot = mix_index(key) & map_mask_;
  while (map_keys_[slot] != kEmptyKey) {
    if (map_keys_[slot] == key) return &map_vals_[slot];
    slot = (slot + 1) & map_mask_;
  }
  return nullptr;
}

void ReuseSim::map_insert(std::uint64_t key, std::uint32_t value) {
  std::uint64_t slot = mix_index(key) & map_mask_;
  while (map_keys_[slot] != kEmptyKey) slot = (slot + 1) & map_mask_;
  map_keys_[slot] = key;
  map_vals_[slot] = value;
}

void ReuseSim::map_erase(std::uint64_t key) {
  std::uint64_t slot = mix_index(key) & map_mask_;
  while (map_keys_[slot] != key) {
    DTSE_DCHECK(map_keys_[slot] != kEmptyKey, "erasing an absent reuse-map key");
    slot = (slot + 1) & map_mask_;
  }
  // Backward-shift deletion keeps probe chains intact without tombstones.
  std::uint64_t hole = slot;
  std::uint64_t probe = (hole + 1) & map_mask_;
  while (map_keys_[probe] != kEmptyKey) {
    const std::uint64_t home = mix_index(map_keys_[probe]) & map_mask_;
    // Move the probed entry into the hole unless its home slot lies
    // (cyclically) after the hole — then the hole does not break its chain.
    const bool keep = hole <= probe ? (home > hole && home <= probe)
                                    : (home > hole || home <= probe);
    if (!keep) {
      map_keys_[hole] = map_keys_[probe];
      map_vals_[hole] = map_vals_[probe];
      hole = probe;
    }
    probe = (probe + 1) & map_mask_;
  }
  map_keys_[hole] = kEmptyKey;
}

// --- Recorder ----------------------------------------------------------------

Recorder::Recorder(std::string application_name)
    : app_name_(std::move(application_name)) {}

ArrayId Recorder::register_array(std::string name, std::uint64_t words, int bitwidth,
                                 std::optional<memlib::Location> forced_location) {
  DTSE_CHECK(!name.empty(), "array needs a name");
  DTSE_CHECK(words > 0 && bitwidth > 0, "array geometry must be positive");
  for (const auto& info : arrays_) {
    DTSE_CHECK(info.name != name, "duplicate array name: " + name);
  }
  ArrayInfo info;
  info.name = std::move(name);
  info.words = words;
  info.bitwidth = bitwidth;
  info.forced_location = forced_location;
  arrays_.push_back(std::move(info));
  return static_cast<ArrayId>(arrays_.size() - 1);
}

void Recorder::set_reuse_windows(ArrayId array, std::vector<WindowSpec> windows) {
  DTSE_CHECK(array < arrays_.size(), "unknown array");
  std::sort(windows.begin(), windows.end(),
            [](const WindowSpec& a, const WindowSpec& b) {
              return a.declared_words != b.declared_words
                         ? a.declared_words < b.declared_words
                         : a.sim_words < b.sim_words;
            });
  auto& info = arrays_[array];
  info.windows.clear();
  std::vector<std::uint64_t> capacities;
  for (const auto& window : windows) {
    DTSE_CHECK(window.sim_words > 0 && window.declared_words > 0,
               "reuse window must hold at least one word");
    if (!info.windows.empty() &&
        (window.sim_words <= info.windows.back().sim_words ||
         window.declared_words <= info.windows.back().declared_words)) {
      continue;
    }
    info.windows.push_back(window);
    capacities.push_back(window.sim_words);
  }
  info.reuse.init(std::move(capacities));
}

void Recorder::set_reuse_windows(ArrayId array,
                                 const std::vector<std::uint64_t>& window_words) {
  std::vector<WindowSpec> windows;
  windows.reserve(window_words.size());
  for (const auto w : window_words) windows.push_back({w, w});
  set_reuse_windows(array, std::move(windows));
}

void Recorder::begin_iteration(std::string_view body_name) {
  DTSE_CHECK(current_body_ < 0, "iterations cannot nest; end the previous one first");
  auto it = body_index_.find(body_name);
  if (it == body_index_.end()) {
    BodyInfo body;
    body.name = std::string(body_name);
    bodies_.push_back(std::move(body));
    it = body_index_.emplace(std::string(body_name), bodies_.size() - 1).first;
  }
  current_body_ = static_cast<long>(it->second);
  pending_.clear();
}

void Recorder::end_iteration() {
  DTSE_CHECK(current_body_ >= 0, "no iteration in progress");
  aggregate_iteration();
  current_body_ = -1;
  pending_.clear();
}

void Recorder::grow_body_state(BodyInfo& body, std::size_t arrays) {
  body.accesses.resize(2 * arrays);
  if (body.co_arrays == arrays) return;
  // Remap the dense co-access matrix to the new array count (arrays can be
  // registered between iterations of an already-seen body).
  std::vector<std::uint64_t> grown(2 * arrays * arrays, 0);
  const std::size_t old_n = body.co_arrays;
  for (std::size_t kind = 0; kind < 2; ++kind) {
    for (std::size_t lo = 0; lo < old_n; ++lo) {
      for (std::size_t hi = lo + 1; hi < old_n; ++hi) {
        grown[(kind * arrays + lo) * arrays + hi] =
            body.co_access[(kind * old_n + lo) * old_n + hi];
      }
    }
  }
  body.co_access = std::move(grown);
  body.co_arrays = arrays;
}

void Recorder::aggregate_iteration() {
  auto& body = bodies_[static_cast<std::size_t>(current_body_)];
  ++body.iterations;
  const std::size_t n = arrays_.size();
  if (body.accesses.size() != 2 * n || body.co_arrays != n) grow_body_state(body, n);

  for (const auto& event : pending_) {
    auto& agg = body.accesses[event.slot];
    if (agg.has_last && event.index > agg.last_index) {
      const std::uint64_t delta = event.index - agg.last_index;
      if (delta == 1) ++agg.stride1;
      if (delta <= 3) {
        ++agg.dense;
        agg.dense_delta += delta;
      }
    }
    agg.last_index = event.index;
    agg.has_last = true;
    ++agg.count;
  }

  // Same-index co-accesses of the same kind between different arrays.  Each
  // event is chained to the previous one with its (index, kind) key and pairs
  // with every earlier event on that chain, so only same-key events compare.
  constexpr std::uint32_t kNoEvent = ~std::uint32_t{0};
  DTSE_DCHECK(pending_.size() < kNoEvent, "iteration too large");
  // Fibonacci hashing: the key's top bits pick a bucket in a power-of-two
  // table at least twice the iteration's event count.
  std::size_t table_size = 16;
  while (table_size < 2 * pending_.size()) table_size <<= 1;
  const std::size_t mask = table_size - 1;
  const int shift = 64 - std::countr_zero(table_size);
  co_heads_.assign(table_size, kNoEvent);
  co_chain_.resize(pending_.size());
  for (std::uint32_t i = 0; i < pending_.size(); ++i) {
    const auto& event = pending_[i];
    const std::uint32_t kind = event.slot & 1u;
    std::size_t bucket = (((event.index << 1) | kind) * 0x9E3779B97F4A7C15ULL) >> shift;
    while (co_heads_[bucket] != kNoEvent) {
      const auto& head = pending_[co_heads_[bucket]];
      if (head.index == event.index && (head.slot & 1u) == kind) break;
      bucket = (bucket + 1) & mask;
    }
    co_chain_[i] = co_heads_[bucket];
    co_heads_[bucket] = i;
    const ArrayId array = array_of(event.slot);
    for (std::uint32_t j = co_chain_[i]; j != kNoEvent; j = co_chain_[j]) {
      const ArrayId other = array_of(pending_[j].slot);
      if (other == array) continue;
      ++body.co_access[(kind * n + std::min(array, other)) * n + std::max(array, other)];
    }
  }

  // Dependency skeleton, captured once from the first iteration.  Because
  // accesses aggregate into one node per slot, edges must follow a single
  // total order or they could form cycles; we use the first occurrence of
  // each slot within the iteration.  A read gates every write first seen
  // later (values flow from inputs through the datapath to outputs) and
  // same-array accesses stay ordered (flow through memory).
  if (!body.deps_captured) {
    body.deps_captured = true;
    std::vector<std::uint8_t> seen(2 * n, 0);
    std::vector<std::uint32_t> first_seen;
    for (const auto& event : pending_) {
      if (seen[event.slot] == 0) {
        seen[event.slot] = 1;
        first_seen.push_back(event.slot);
      }
    }
    for (std::size_t i = 0; i < first_seen.size(); ++i) {
      for (std::size_t j = i + 1; j < first_seen.size(); ++j) {
        const auto from = first_seen[i];
        const auto to = first_seen[j];
        const bool read_to_write = kind_of(from) == ir::AccessKind::kRead &&
                                   kind_of(to) == ir::AccessKind::kWrite;
        const bool same_array = array_of(from) == array_of(to);
        if (read_to_write || same_array) body.deps.emplace_back(from, to);
      }
    }
  }
}

ir::Application Recorder::build(double scale) const {
  DTSE_CHECK(scale > 0.0, "scale must be positive");
  DTSE_CHECK(current_body_ < 0, "finish the current iteration before building");

  ir::Application app(app_name_);
  std::vector<ir::BasicGroupId> group_of(arrays_.size());
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    ir::BasicGroup group;
    group.name = arrays_[i].name;
    group.words = arrays_[i].words;
    group.bitwidth = arrays_[i].bitwidth;
    group.forced_location = arrays_[i].forced_location;
    group_of[i] = app.add_group(std::move(group));
  }

  constexpr auto kNoAccess = ~std::size_t{0};
  for (const auto& body : bodies_) {
    if (body.iterations == 0) continue;
    ir::LoopBody ir_body;
    ir_body.name = body.name;
    ir_body.iterations = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(body.iterations) * scale));
    if (ir_body.iterations == 0) ir_body.iterations = 1;

    // Slot order is (array asc, read-before-write), matching the ordered-map
    // extraction the flat layout replaced; downstream tables rely on it.
    std::vector<std::size_t> access_index(body.accesses.size(), kNoAccess);
    const double iters = static_cast<double>(body.iterations);
    for (std::size_t slot = 0; slot < body.accesses.size(); ++slot) {
      const auto& agg = body.accesses[slot];
      if (agg.count == 0) continue;
      ir::Access access;
      access.group = group_of[array_of(static_cast<std::uint32_t>(slot))];
      access.kind = kind_of(static_cast<std::uint32_t>(slot));
      access.per_iteration = static_cast<double>(agg.count) / iters;
      access.stride1_fraction =
          static_cast<double>(agg.stride1) / static_cast<double>(agg.count);
      access.dense_fraction =
          static_cast<double>(agg.dense) / static_cast<double>(agg.count);
      access.dense_stride =
          agg.dense > 0
              ? static_cast<double>(agg.dense_delta) / static_cast<double>(agg.dense)
              : 1.0;
      access_index[slot] = ir_body.accesses.size();
      ir_body.accesses.push_back(access);
    }

    const std::size_t n = body.co_arrays;
    for (std::size_t kind = 0; kind < 2; ++kind) {
      for (std::size_t lo = 0; lo < n; ++lo) {
        for (std::size_t hi = lo + 1; hi < n; ++hi) {
          const auto pairs = body.co_access[(kind * n + lo) * n + hi];
          if (pairs == 0) continue;
          const auto a = access_index[2 * lo + kind];
          const auto b = access_index[2 * hi + kind];
          DTSE_ASSERT(a != kNoAccess && b != kNoAccess, "co-access over unknown accesses");
          ir_body.co_accesses.push_back({a, b, static_cast<double>(pairs) / iters});
        }
      }
    }

    for (const auto& [from, to] : body.deps) {
      const auto a = access_index[from];
      const auto b = access_index[to];
      if (a == kNoAccess || b == kNoAccess) continue;
      ir_body.deps.emplace_back(a, b);
    }
    app.add_body(std::move(ir_body));
  }

  std::uint64_t reuse_misses = 0;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    const auto& info = arrays_[i];
    if (info.windows.empty()) continue;
    ir::ReuseProfile profile;
    for (std::size_t w = 0; w < info.windows.size(); ++w) {
      const std::uint64_t misses = info.reuse.misses(w);
      reuse_misses += misses;
      profile.windows.push_back(
          {info.windows[w].declared_words, static_cast<double>(misses) * scale});
    }
    app.set_reuse_profile(group_of[i], std::move(profile));
  }

  auto& registry = obs::TelemetryRegistry::global();
  registry.counter("recorder.builds").add(1);
  registry.counter("recorder.recorded_events").add(total_events_);
  registry.counter("recorder.reuse_misses").add(reuse_misses);

  app.validate();
  return app;
}

}  // namespace dtse::trace
