// Textbook LRU reference for the recorder's reuse simulation.
//
// `ReferenceLru` is one cache of one capacity: a recency list plus a hash
// index.  It deliberately shares nothing with `trace::ReuseSim` (no stack
// distances, no per-window boundaries, no live-slot bitset, no slot
// compaction), so a bug there cannot hide here.  The oracle test in
// tests/trace_test.cpp and the fuzz/fuzz_reuse_sim.cpp differential fuzzer
// run one per window and compare miss counts.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

namespace dtse::trace::oracle {

class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity) {}

  void touch(std::uint64_t index) {
    const auto it = where_.find(index);
    if (it != where_.end()) {
      order_.erase(it->second);
      order_.push_front(index);
      it->second = order_.begin();
      return;
    }
    ++misses_;
    order_.push_front(index);
    where_[index] = order_.begin();
    if (order_.size() > capacity_) {
      where_.erase(order_.back());
      order_.pop_back();
    }
  }

  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t misses_ = 0;
  std::list<std::uint64_t> order_;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> where_;
};

}  // namespace dtse::trace::oracle
