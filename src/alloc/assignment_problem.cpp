#include "alloc/assignment_problem.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace dtse::alloc {

AssignmentProblem::AssignmentProblem(const ir::Application& app,
                                     std::vector<ir::BasicGroupId> groups,
                                     const graph::ConflictGraph& conflicts,
                                     const memlib::MemoryLibrary& library,
                                     std::uint64_t frame_cycles)
    : app_(&app),
      groups_(std::move(groups)),
      library_(&library),
      frame_cycles_(frame_cycles) {
  DTSE_CHECK(frame_cycles_ > 0, "frame cycle count must be positive");
  const std::size_t n = groups_.size();
  conflict_words_ = (n + 63) / 64;
  conflict_bits_.assign(n * conflict_words_, 0);
  self_bits_.assign(conflict_words_, 0);
  aggregates_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (conflicts.has_self_conflict(groups_[i])) {
      self_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool c = conflicts.conflicts(groups_[i], groups_[j]) &&
                     conflicts.conflict_weight(groups_[i], groups_[j]) > 0.0;
      if (c) {
        conflict_bits_[i * conflict_words_ + j / 64] |= std::uint64_t{1} << (j % 64);
        conflict_bits_[j * conflict_words_ + i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
    const auto& group = app_->group(groups_[i]);
    const auto totals = app_->totals(groups_[i]);
    aggregates_[i] = {group.words, group.bitwidth, static_cast<std::uint64_t>(totals.reads),
                      static_cast<std::uint64_t>(totals.writes)};
  }
}

AssignmentProblem::GroupAggregates AssignmentProblem::aggregate_members(
    const std::vector<std::size_t>& members) const {
  GroupAggregates sum;
  for (const auto m : members) {
    sum.words += aggregates_[m].words;
    sum.width_bits = std::max(sum.width_bits, aggregates_[m].width_bits);
    sum.reads += aggregates_[m].reads;
    sum.writes += aggregates_[m].writes;
  }
  return sum;
}

bool AssignmentProblem::conflicting(std::size_t i, std::size_t j) const {
  DTSE_CHECK(i < groups_.size() && j < groups_.size(), "group index out of range");
  return test_bit(conflict_row(i), j);
}

bool AssignmentProblem::self_conflicting(std::size_t i) const {
  DTSE_CHECK(i < groups_.size(), "group index out of range");
  return test_bit(self_bits_.data(), i);
}

int AssignmentProblem::simultaneous_accesses(const std::vector<std::size_t>& members) const {
  // Exact 1 / 2 / >2 classification on the conflict bitsets (see header).
  // This sits on the inner loop of every solver, so the member-set scratch
  // bitset lives on the stack for all realistic group counts.
  constexpr std::size_t kInlineWords = 16;  // 1024 groups
  std::uint64_t inline_bits[kInlineWords] = {};
  std::vector<std::uint64_t> heap_bits;
  std::uint64_t* member_bits = inline_bits;
  const std::size_t words = conflict_words_;
  if (words > kInlineWords) {
    heap_bits.assign(words, 0);
    member_bits = heap_bits.data();
  }
  for (const auto m : members) member_bits[m / 64] |= std::uint64_t{1} << (m % 64);

  bool pair_or_self = false;
  for (const auto u : members) {
    const std::uint64_t* row_u = conflict_row(u);
    std::uint64_t degree_bits = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t neighbours = row_u[w] & member_bits[w];
      degree_bits |= neighbours;
      if (neighbours == 0) continue;
      // A conflicting pair with a self-conflicting endpoint needs 3 ports.
      if ((neighbours & self_bits_[w]) != 0) return 3;
      // A triangle through u: two of u's in-set neighbours conflict.  Each
      // neighbour v contributes its own in-set neighbourhood; overlap with
      // u's means a common edge.  Scanning only v > u visits each edge once.
      std::uint64_t scan = neighbours;
      if (w < u / 64) {
        scan = 0;
      } else if (w == u / 64) {
        scan &= ~(((std::uint64_t{1} << (u % 64)) << 1) - 1);  // bits above u
      }
      while (scan != 0) {
        const std::size_t v = w * 64 + static_cast<std::size_t>(__builtin_ctzll(scan));
        scan &= scan - 1;
        const std::uint64_t* row_v = conflict_row(v);
        for (std::size_t w2 = 0; w2 < words; ++w2) {
          if ((row_v[w2] & row_u[w2] & member_bits[w2]) != 0) return 3;
        }
      }
    }
    if (degree_bits != 0) {
      pair_or_self = true;
      if (test_bit(self_bits_.data(), u)) return 3;  // u itself needs two ports
    } else if (test_bit(self_bits_.data(), u)) {
      pair_or_self = true;
    }
  }
  return pair_or_self ? 2 : 1;
}

std::optional<MemoryInstance> AssignmentProblem::build_memory(
    const std::vector<std::size_t>& members) const {
  if (members.empty()) return MemoryInstance{};

  const int ports_needed = simultaneous_accesses(members);
  if (ports_needed > 2) return std::nullopt;  // no tri-ported generator blocks

  MemoryInstance mem;
  mem.ports = ports_needed == 2 ? memlib::PortCount::kDual : memlib::PortCount::kSingle;
  mem.groups.reserve(members.size());
  for (const auto m : members) mem.groups.push_back(groups_[m]);
  const auto agg = aggregate_members(members);
  mem.words = agg.words;
  mem.width_bits = agg.width_bits;
  mem.cost = library_->sram().cost(mem.words, mem.width_bits, mem.ports);
  mem.power_mw = library_->onchip_power_mw(mem.cost, agg.reads, agg.writes, frame_cycles_);
  return mem;
}

memlib::CostTerm AssignmentProblem::aggregate_cost_term(const GroupAggregates& sum,
                                                       int ports) const {
  DTSE_DCHECK(ports == 1 || ports == 2, "memories have one or two ports");
  const auto cost = library_->sram().cost(
      sum.words, sum.width_bits,
      ports == 2 ? memlib::PortCount::kDual : memlib::PortCount::kSingle);
  const double power = library_->onchip_power_mw(cost, sum.reads, sum.writes, frame_cycles_);
  return memlib::CostTerm{cost.area_mm2, power};
}

std::optional<memlib::CostTerm> AssignmentProblem::cost_of_members(
    const std::vector<std::size_t>& members) const {
  if (members.empty()) return memlib::CostTerm{};
  const int ports_needed = simultaneous_accesses(members);
  if (ports_needed > 2) return std::nullopt;
  return aggregate_cost_term(aggregate_members(members), ports_needed);
}

std::optional<memlib::CostSummary> AssignmentProblem::evaluate(
    const std::vector<int>& assignment, int memory_count) const {
  DTSE_CHECK(assignment.size() == groups_.size(), "one assignment entry per group");
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(memory_count));
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    DTSE_CHECK(assignment[i] >= 0 && assignment[i] < memory_count,
               "assignment entry out of range");
    members[static_cast<std::size_t>(assignment[i])].push_back(i);
  }
  memlib::CostSummary summary;
  for (const auto& m : members) {
    if (m.empty()) continue;
    const auto mem = build_memory(m);
    if (!mem) return std::nullopt;
    summary.onchip_area_mm2 += mem->cost.area_mm2;
    summary.onchip_power_mw += mem->power_mw;
  }
  return summary;
}

int AssignmentProblem::min_memories() const {
  // Greedy colouring bound: self-conflicting groups can still share a
  // dual-port memory alone, so only pairwise conflicts force extra memories
  // (a pair of conflicting groups could also share one dual-port memory, but
  // a clique of three cannot — use the clique bound over pairs, halved by
  // the dual-port option, never below 1).
  int clique = 1;
  const std::size_t n = groups_.size();
  for (std::size_t seed = 0; seed < n; ++seed) {
    std::vector<std::size_t> c{seed};
    for (std::size_t cand = 0; cand < n; ++cand) {
      if (cand == seed) continue;
      const bool adj = std::all_of(c.begin(), c.end(), [&](std::size_t m) {
        return m != cand && test_bit(conflict_row(m), cand);
      });
      if (adj) c.push_back(cand);
    }
    clique = std::max(clique, static_cast<int>(c.size()));
  }
  // Two mutually conflicting groups fit in one dual-port memory.
  return std::max(1, (clique + 1) / 2);
}

}  // namespace dtse::alloc
