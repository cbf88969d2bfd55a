#include "alloc/incremental_cost.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/check.hpp"

namespace dtse::alloc {

namespace {

constexpr std::uint64_t bit_of(std::size_t group) {
  return std::uint64_t{1} << (group % 64);
}

/// Set bits of `word`.  `std::popcount` compiles to a library call on the
/// baseline x86-64 ISA (no POPCNT), which spills the caller's registers.
constexpr std::uint64_t popcount(std::uint64_t word) {
  word -= (word >> 1) & 0x5555555555555555ULL;
  word = (word & 0x3333333333333333ULL) + ((word >> 2) & 0x3333333333333333ULL);
  word = (word + (word >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return (word * 0x0101010101010101ULL) >> 56;
}

static_assert(std::has_single_bit(AssignmentState::kMemoSlots),
              "memo slots: a power of two");
constexpr int kMemoShift = 64 - std::countr_zero(AssignmentState::kMemoSlots);

/// Slack per rounding: 2^-50 = 8u (u = 2^-53, a double's unit roundoff).
/// gamma_k = k*u / (1 - k*u) <= 2*k*u while k*u <= 1/2; the further factor 4
/// covers the roundings of `magnitude_` and of the slack itself.
constexpr double kSlackUnit = 0x1p-50;
/// Roundings per term outside the N-term sums (see `price`).
constexpr double kSlackOps = 8.0;

}  // namespace

template <std::size_t Words>
BasicAssignmentState<Words>::BasicAssignmentState(const AssignmentProblem& problem,
                                                  int memory_count,
                                                  const memlib::CostWeights& weights)
    : problem_(&problem),
      weights_(weights),
      memory_count_(memory_count),
      words_(problem.conflict_words()) {
  DTSE_CHECK(memory_count >= 1, "need at least one memory");
  DTSE_CHECK(Words == kAnyWords || words_ == Words, "member sets of the template width");
  figures_.resize(problem.group_count());
  for (std::size_t i = 0; i < figures_.size(); ++i) {
    figures_[i] = {problem.group_aggregates(i), problem.self_conflicting(i)};
  }
  memo_.assign(kMemoSlots * (words() + 2), 0);
}

template <std::size_t Words>
memlib::CostSummary BasicAssignmentState<Words>::summed_terms(bool moved,
                                                             double* magnitude) const {
  // `AssignmentProblem::evaluate` skips empty memories.  An empty memory's
  // term here is +0 (`reset` leaves it, `commit` stores the emptied
  // source's) and a live term is positive, so adding it leaves every sum's
  // bits as the skip would: the sums match a from-scratch evaluation
  // without a branch per memory.
  memlib::CostSummary summary;
  memlib::CostTerm absolute;
  for (int m = 0; m < memory_count_; ++m) {
    memlib::CostTerm term = memories_[static_cast<std::size_t>(m)].term;
    if (moved) {
      term = m == pending_.from ? pending_.from_term
                                : (m == pending_.to ? pending_.to_term : term);
    }
    summary.onchip_area_mm2 += term.area_mm2;
    summary.onchip_power_mw += term.power_mw;
    absolute += {std::abs(term.area_mm2), std::abs(term.power_mw)};
  }
  if (magnitude != nullptr) {
    *magnitude = std::abs(weights_.area_weight) * absolute.area_mm2 +
                 std::abs(weights_.power_weight) * absolute.power_mw;
  }
  return summary;
}

template <std::size_t Words>
bool BasicAssignmentState<Words>::reset(const std::vector<int>& assignment) {
  DTSE_CHECK(assignment.size() == problem_->group_count(), "one entry per group");
  assignment_ = assignment;
  pending_.active = false;

  memories_.assign(static_cast<std::size_t>(memory_count_), {});
  if constexpr (Words == kAnyWords) bits_.assign(memories_.size() * words_, 0);
  std::vector<std::vector<std::size_t>> members(memories_.size());
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    DTSE_CHECK(assignment_[i] >= 0 && assignment_[i] < memory_count_,
               "assignment entry out of range");
    members[static_cast<std::size_t>(assignment_[i])].push_back(i);
  }
  for (int m = 0; m < memory_count_; ++m) {
    // The feasibility gate stays with the exact reference computation; the
    // maintained counts only ever describe sets that passed it.
    const auto& set = members[static_cast<std::size_t>(m)];
    if (problem_->simultaneous_accesses(set) > 2) return false;
    auto& mem = memories_[static_cast<std::size_t>(m)];
    for (const auto group : set) {
      bits(m)[group / 64] |= bit_of(group);
      account(mem, bits(m), group, true);
    }
    if (mem.members > 0) mem.term = problem_->aggregate_cost_term(mem.sum, mem.ports());
  }
  onchip_ = summed_terms(false, &magnitude_);
  scalar_ = weights_.scalarize(onchip_);
  return true;
}

template <std::size_t Words>
std::uint64_t BasicAssignmentState<Words>::degree_in(const std::uint64_t* members,
                                                     std::size_t group) const {
  // The group's conflict row has no self bit, so whether `members` holds the
  // group does not change its degree.
  const std::uint64_t* row = problem_->conflict_row(group);
  std::uint64_t degree = 0;
  for (std::size_t w = 0; w < words(); ++w) degree += popcount(row[w] & members[w]);
  return degree;
}

template <std::size_t Words>
int BasicAssignmentState<Words>::widest(const std::uint64_t* members,
                                        std::size_t* holders) const {
  int width = 0;
  std::size_t count = 0;
  for (std::size_t w = 0; w < words(); ++w) {
    for (std::uint64_t scan = members[w]; scan != 0; scan &= scan - 1) {
      const auto index = w * 64 + static_cast<std::size_t>(std::countr_zero(scan));
      const int member = figures_[index].sum.width_bits;
      if (member > width) count = 0;
      width = std::max(width, member);
      if (member == width) ++count;
    }
  }
  if (holders != nullptr) *holders = count;
  return width;
}

template <std::size_t Words>
void BasicAssignmentState<Words>::account(MemoryState& mem, const std::uint64_t* members,
                                          std::size_t group, bool joining) const {
  const std::uint64_t degree = degree_in(members, group);
  const auto& g = figures_[group];
  const std::uint64_t self = g.self_conflicting ? 1 : 0;
  const int width = g.sum.width_bits;
  if (joining) {
    ++mem.members;
    mem.sum.words += g.sum.words;
    mem.sum.reads += g.sum.reads;
    mem.sum.writes += g.sum.writes;
    mem.pair_conflicts += degree;
    mem.self_conflicts += self;
    if (width > mem.sum.width_bits) mem.width_holders = 0;
    mem.sum.width_bits = std::max(mem.sum.width_bits, width);
    if (width == mem.sum.width_bits) ++mem.width_holders;
    return;
  }
  --mem.members;
  mem.sum.words -= g.sum.words;
  mem.sum.reads -= g.sum.reads;
  mem.sum.writes -= g.sum.writes;
  mem.pair_conflicts -= degree;
  mem.self_conflicts -= self;
  // The last widest member left: rescan the remaining members.
  if (width == mem.sum.width_bits && --mem.width_holders == 0) {
    mem.sum.width_bits = widest(members, &mem.width_holders);
  }
}

template <std::size_t Words>
std::uint64_t BasicAssignmentState<Words>::moved_key(int m, std::size_t group,
                                                    std::size_t w) {
  return bits(m)[w] ^ (w == group / 64 ? bit_of(group) : 0);
}

template <std::size_t Words>
std::uint64_t* BasicAssignmentState<Words>::memo_slot(int m, std::size_t group) {
  std::uint64_t hash = 0;
  for (std::size_t w = 0; w < words(); ++w) {
    hash = (hash ^ moved_key(m, group, w)) * 0x9E3779B97F4A7C15ULL;
  }
  return memo_.data() + (hash >> kMemoShift) * (words() + 2);
}

template <std::size_t Words>
inline memlib::CostTerm BasicAssignmentState<Words>::moved_term(int m, std::size_t group,
                                                                bool joining,
                                                                std::uint64_t* slot) {
  // The key is the exact member set after the move; it is never empty (an
  // emptied memory has no term), so an all-zero slot is an empty one.
  ++memo_lookups_;
  std::size_t same = 0;
  while (same < words() && slot[same] == moved_key(m, group, same)) ++same;
  if (same == words()) [[likely]] {
    return {std::bit_cast<double>(slot[words()]),
            std::bit_cast<double>(slot[words() + 1])};
  }
  // Miss: the slot takes the new key, and the model prices the moved set
  // from the memory's aggregate (the width is rescanned only when the last
  // widest member leaves).  A joining group's conflict row has no self bit,
  // so any overlap with the key is a conflict with another member.
  ++memo_misses_;
  for (std::size_t w = 0; w < words(); ++w) slot[w] = moved_key(m, group, w);
  const auto& mem = memories_[static_cast<std::size_t>(m)];
  const auto& g = figures_[group];
  auto sum = mem.sum;
  bool dual = false;
  if (joining) {
    sum.words += g.sum.words;
    sum.reads += g.sum.reads;
    sum.writes += g.sum.writes;
    sum.width_bits = std::max(sum.width_bits, g.sum.width_bits);
    const std::uint64_t* row = problem_->conflict_row(group);
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words(); ++w) any |= row[w] & slot[w];
    dual = mem.pair_conflicts > 0 || mem.self_conflicts > 0 || g.self_conflicting ||
           any != 0;
  } else {
    sum.words -= g.sum.words;
    sum.reads -= g.sum.reads;
    sum.writes -= g.sum.writes;
    if (g.sum.width_bits == sum.width_bits && mem.width_holders == 1) {
      sum.width_bits = widest(slot, nullptr);
    }
    dual = mem.pair_conflicts > degree_in(slot, group) ||
           mem.self_conflicts > (g.self_conflicting ? 1u : 0u);
  }
  const auto term = problem_->aggregate_cost_term(sum, dual ? 2 : 1);
  slot[words()] = std::bit_cast<std::uint64_t>(term.area_mm2);
  slot[words() + 1] = std::bit_cast<std::uint64_t>(term.power_mw);
  return term;
}

template <std::size_t Words>
auto BasicAssignmentState<Words>::price(std::size_t group, int to)
    -> std::optional<Quote> {
  DTSE_DCHECK(group < assignment_.size(), "group index out of range");
  DTSE_DCHECK(to >= 0 && to < memory_count_, "memory index out of range");
  const int from = assignment_[group];
  DTSE_DCHECK(to != from, "move must change the memory");
  pending_.active = false;
  // Both memo slots are located before the feasibility check, so their
  // loads can start while it runs.
  std::uint64_t* const from_slot = memo_slot(from, group);
  std::uint64_t* const to_slot = memo_slot(to, group);
  if (problem_->insertion_infeasible<Words>(bits(to), group)) return std::nullopt;

  const auto& src = memories_[static_cast<std::size_t>(from)];
  const auto& dst = memories_[static_cast<std::size_t>(to)];
  const auto from_term =
      src.members == 1 ? memlib::CostTerm{} : moved_term(from, group, false, from_slot);
  const auto to_term = moved_term(to, group, true, to_slot);
  // Field by field: a braced aggregate is built on the stack, and reading it
  // back stalls on store forwarding.
  pending_.group = group;
  pending_.from = from;
  pending_.to = to;
  pending_.from_term = from_term;
  pending_.to_term = to_term;
  pending_.active = true;

  // Slack derivation.  Let S be the exact cost (N terms summed in index
  // order, then scalarized) and M = |wa|*Σ|area| + |wp|*Σ|power| over its
  // terms; S' and M' likewise after the move.  Summation gives each term at
  // most N-1 roundings and scalarizing two more, so |S - S*| <= gamma_{N+1}
  // * M against the real value S*, and the same for S'.  In real arithmetic
  // the untouched terms cancel: S'* - S* is the real value of `delta`
  // below, computed with 4 roundings per term (gamma_4 over magnitudes
  // summing to at most M + M').  `estimate - scalar_cost()` and rounding
  // S' - S add 3, one more is spare: kSlackOps = 8.  So the rounded exact
  // delta is within gamma_{N+8} * (M + M') of `estimate - scalar_cost()`,
  // with M + M' <= 2M + |new terms|.  |weights| make it hold for any
  // `CostWeights`.
  const double wa = weights_.area_weight;
  const double wp = weights_.power_weight;
  const double delta = wa * ((from_term.area_mm2 - src.term.area_mm2) +
                             (to_term.area_mm2 - dst.term.area_mm2)) +
                       wp * ((from_term.power_mw - src.term.power_mw) +
                             (to_term.power_mw - dst.term.power_mw));
  const double fresh =
      std::abs(wa) * (std::abs(from_term.area_mm2) + std::abs(to_term.area_mm2)) +
      std::abs(wp) * (std::abs(from_term.power_mw) + std::abs(to_term.power_mw));
  const double slack = kSlackUnit * (static_cast<double>(memory_count_) + kSlackOps) *
                       (2.0 * magnitude_ + fresh);
  return Quote{scalar_ + delta, slack};
}

template <std::size_t Words>
double BasicAssignmentState<Words>::exact_price() const {
  DTSE_CHECK(pending_.active, "no priced move");
  return weights_.scalarize(summed_terms(true, nullptr));
}

template <std::size_t Words>
void BasicAssignmentState<Words>::commit() {
  DTSE_CHECK(pending_.active, "no priced move to commit");
  pending_.active = false;
  const std::size_t group = pending_.group;
  auto& src = memories_[static_cast<std::size_t>(pending_.from)];
  auto& dst = memories_[static_cast<std::size_t>(pending_.to)];
  bits(pending_.to)[group / 64] |= bit_of(group);
  account(dst, bits(pending_.to), group, true);
  bits(pending_.from)[group / 64] &= ~bit_of(group);
  account(src, bits(pending_.from), group, false);
  src.term = pending_.from_term;
  dst.term = pending_.to_term;
  assignment_[group] = pending_.to;
  // The stored terms are the moved ones now: the sum needs no substitution.
  onchip_ = summed_terms(false, &magnitude_);
  scalar_ = weights_.scalarize(onchip_);
}

template class BasicAssignmentState<1>;
template class BasicAssignmentState<kAnyWords>;

}  // namespace dtse::alloc
