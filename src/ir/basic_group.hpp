// Basic groups: the unit of data the methodology reasons about.
//
// Following the paper (Section 4.1), background data is partitioned into
// non-overlapping *basic groups* that can be ordered and stored independently
// of each other.  A basic group is treated as an atomic whole by all tools,
// while its internal structure is a multi-dimensional array rather than a set
// of scalars.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "memlib/memory_cost.hpp"
#include "support/strong_id.hpp"

namespace dtse::ir {

struct BasicGroupTag {};
using BasicGroupId = support::StrongId<BasicGroupTag>;

/// One basic group (array) of the application.
struct BasicGroup {
  std::string name;
  std::uint64_t words = 0;  ///< number of addressable elements
  int bitwidth = 0;         ///< bits per element

  /// If set, the signal-to-memory assignment must place the group here
  /// (e.g. a register-file layer is by construction on-chip).
  std::optional<memlib::Location> forced_location = std::nullopt;

  /// Memory hierarchy layer this group belongs to.  Layer 0 is closest to
  /// the datapath; the main (original) arrays live on the highest layer.
  /// Groups on the same layer compete for the same memories.
  int hierarchy_layer = 2;

  [[nodiscard]] std::uint64_t bits() const {
    return words * static_cast<std::uint64_t>(bitwidth);
  }
};

}  // namespace dtse::ir
