// Pairwise reference for the recorder's same-index co-access counts.
//
// This is the definition the recorder's key-bucketed counting must
// reproduce: within one iteration, every pair of events with the same index
// and the same access kind on two different arrays is one co-access.  Two
// reads of one array at an index both pair with a third array's read there;
// a read and a write never pair.  The scan is O(events²) per iteration,
// which is why the library does not use it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "ir/loop_body.hpp"
#include "trace/recorder.hpp"

namespace dtse::trace::oracle {

struct Event {
  ArrayId array = 0;
  std::uint64_t index = 0;
  ir::AccessKind kind = ir::AccessKind::kRead;
};

/// (kind, lower array, higher array).
using CoAccessKey = std::tuple<ir::AccessKind, ArrayId, ArrayId>;

/// Adds one iteration's co-access pairs to `counts`.
inline void count_co_accesses(const std::vector<Event>& iteration,
                              std::map<CoAccessKey, std::uint64_t>& counts) {
  for (std::size_t i = 0; i < iteration.size(); ++i) {
    for (std::size_t j = i + 1; j < iteration.size(); ++j) {
      const auto& a = iteration[i];
      const auto& b = iteration[j];
      if (a.index != b.index || a.kind != b.kind || a.array == b.array) continue;
      ++counts[{a.kind, std::min(a.array, b.array), std::max(a.array, b.array)}];
    }
  }
}

}  // namespace dtse::trace::oracle
