#include "alloc/incremental_cost.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace dtse::alloc {

namespace {

constexpr std::uint64_t bit_of(std::size_t group) {
  return std::uint64_t{1} << (group % 64);
}

}  // namespace

AssignmentState::AssignmentState(const AssignmentProblem& problem, int memory_count,
                                 const memlib::CostWeights& weights)
    : problem_(&problem), weights_(weights), memory_count_(memory_count) {
  DTSE_CHECK(memory_count >= 1, "need at least one memory");
}

double AssignmentState::scalar_from_terms() const {
  // Sum in memory-index order, skipping empty memories — the exact loop
  // `AssignmentProblem::evaluate` runs, so the floating-point result matches
  // a from-scratch evaluation bit-for-bit.
  memlib::CostSummary summary;
  for (const auto& mem : memories_) {
    if (mem.members == 0) continue;
    summary.onchip_area_mm2 += mem.term.area_mm2;
    summary.onchip_power_mw += mem.term.power_mw;
  }
  return weights_.scalarize(summary);
}

memlib::CostTerm AssignmentState::onchip_total() const {
  memlib::CostTerm total;
  for (const auto& mem : memories_) {
    if (mem.members > 0) total += mem.term;
  }
  return total;
}

bool AssignmentState::reset(const std::vector<int>& assignment) {
  DTSE_CHECK(assignment.size() == problem_->group_count(), "one entry per group");
  assignment_ = assignment;
  last_.active = false;

  const std::size_t words = problem_->conflict_words();
  scratch_.assign(words, 0);
  memories_.assign(static_cast<std::size_t>(memory_count_), {});
  for (auto& mem : memories_) mem.bits.assign(words, 0);
  std::vector<std::vector<std::size_t>> members(memories_.size());
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    DTSE_CHECK(assignment_[i] >= 0 && assignment_[i] < memory_count_,
               "assignment entry out of range");
    members[static_cast<std::size_t>(assignment_[i])].push_back(i);
  }
  for (std::size_t m = 0; m < memories_.size(); ++m) {
    // The feasibility gate stays with the exact reference computation; the
    // maintained counts only ever describe sets that passed it.
    if (problem_->simultaneous_accesses(members[m]) > 2) return false;
    auto& mem = memories_[m];
    for (const auto group : members[m]) {
      add_member(mem, group, neighbours_in(mem, group));
      widen(mem, problem_->group_aggregates(group).width_bits);
    }
    if (mem.members > 0) mem.term = problem_->aggregate_cost_term(mem.sum, mem.ports());
  }
  scalar_ = scalar_from_terms();
  return true;
}

void AssignmentState::add_member(MemoryState& mem, std::size_t group, std::uint64_t degree) {
  const auto& g = problem_->group_aggregates(group);
  mem.bits[group / 64] |= bit_of(group);
  ++mem.members;
  mem.sum.words += g.words;
  mem.sum.reads += g.reads;
  mem.sum.writes += g.writes;
  mem.pair_conflicts += degree;
  mem.self_conflicts += problem_->self_conflicting(group) ? 1 : 0;
}

void AssignmentState::remove_member(MemoryState& mem, std::size_t group,
                                    std::uint64_t degree) {
  const auto& g = problem_->group_aggregates(group);
  mem.bits[group / 64] &= ~bit_of(group);
  --mem.members;
  mem.sum.words -= g.words;
  mem.sum.reads -= g.reads;
  mem.sum.writes -= g.writes;
  mem.pair_conflicts -= degree;
  mem.self_conflicts -= problem_->self_conflicting(group) ? 1 : 0;
}

void AssignmentState::widen(MemoryState& mem, int width) {
  if (width > mem.sum.width_bits) {
    mem.sum.width_bits = width;
    mem.width_holders = 1;
  } else if (width == mem.sum.width_bits) {
    ++mem.width_holders;
  }
}

void AssignmentState::narrow(MemoryState& mem, int width) {
  if (width != mem.sum.width_bits || --mem.width_holders > 0) return;
  // The last widest member left: rescan the remaining members.
  mem.sum.width_bits = 0;
  for (std::size_t w = 0; w < mem.bits.size(); ++w) {
    for (std::uint64_t scan = mem.bits[w]; scan != 0; scan &= scan - 1) {
      const auto m = w * 64 + static_cast<std::size_t>(std::countr_zero(scan));
      widen(mem, problem_->group_aggregates(m).width_bits);
    }
  }
}

std::uint64_t AssignmentState::neighbours_in(const MemoryState& mem, std::size_t group) {
  const std::uint64_t* row = problem_->conflict_row(group);
  std::uint64_t degree = 0;
  for (std::size_t w = 0; w < scratch_.size(); ++w) {
    scratch_[w] = row[w] & mem.bits[w];
    degree += std::popcount(scratch_[w]);
  }
  return degree;
}

bool AssignmentState::scratch_insertion_infeasible(std::uint64_t degree,
                                                  std::size_t group) const {
  if (degree == 0) return false;  // no new pairs: port needs cannot grow past 2
  if (problem_->self_conflicting(group)) return true;
  const std::uint64_t* self_bits = problem_->self_conflict_bits();
  for (std::size_t w = 0; w < scratch_.size(); ++w) {
    if ((scratch_[w] & self_bits[w]) != 0) return true;
    std::uint64_t scan = scratch_[w];
    while (scan != 0) {
      const std::size_t v = w * 64 + static_cast<std::size_t>(std::countr_zero(scan));
      scan &= scan - 1;
      // Triangle: a neighbour of the group that conflicts with another one.
      const std::uint64_t* row_v = problem_->conflict_row(v);
      for (std::size_t w2 = 0; w2 < scratch_.size(); ++w2) {
        if ((row_v[w2] & scratch_[w2]) != 0) return true;
      }
    }
  }
  return false;
}

std::optional<double> AssignmentState::apply(std::size_t group, int new_m) {
  DTSE_DCHECK(group < assignment_.size(), "group index out of range");
  DTSE_DCHECK(new_m >= 0 && new_m < memory_count_, "memory index out of range");
  const int old_m = assignment_[group];
  DTSE_DCHECK(new_m != old_m, "move must change the memory");

  auto& src = memories_[static_cast<std::size_t>(old_m)];
  auto& dst = memories_[static_cast<std::size_t>(new_m)];
  const std::uint64_t degree_dst = neighbours_in(dst, group);
  if (scratch_insertion_infeasible(degree_dst, group)) {
    last_.active = false;  // a failed move leaves nothing to revert
    return std::nullopt;
  }
  const std::uint64_t degree_src = neighbours_in(src, group);

  last_ = {.group = group,
           .from = old_m,
           .to = new_m,
           .from_term = src.term,
           .to_term = dst.term,
           .from_width = src.sum.width_bits,
           .from_holders = src.width_holders,
           .to_width = dst.sum.width_bits,
           .to_holders = dst.width_holders,
           .degree_from = degree_src,
           .degree_to = degree_dst,
           .scalar = scalar_,
           .active = true};
  const int width = problem_->group_aggregates(group).width_bits;
  add_member(dst, group, degree_dst);
  widen(dst, width);
  remove_member(src, group, degree_src);
  narrow(src, width);
  src.term = src.members > 0 ? problem_->aggregate_cost_term(src.sum, src.ports())
                             : memlib::CostTerm{};
  dst.term = problem_->aggregate_cost_term(dst.sum, dst.ports());
  assignment_[group] = new_m;
  scalar_ = scalar_from_terms();
  return scalar_;
}

void AssignmentState::revert() {
  DTSE_CHECK(last_.active, "no move to revert");
  last_.active = false;
  assignment_[last_.group] = last_.from;
  scalar_ = last_.scalar;

  auto& src = memories_[static_cast<std::size_t>(last_.from)];
  auto& dst = memories_[static_cast<std::size_t>(last_.to)];
  remove_member(dst, last_.group, last_.degree_to);
  add_member(src, last_.group, last_.degree_from);
  src.sum.width_bits = last_.from_width;
  src.width_holders = last_.from_holders;
  dst.sum.width_bits = last_.to_width;
  dst.width_holders = last_.to_holders;
  src.term = last_.from_term;
  dst.term = last_.to_term;
}

}  // namespace dtse::alloc
