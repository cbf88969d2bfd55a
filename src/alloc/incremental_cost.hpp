// Incremental cost engine for the signal-to-memory assignment search.
//
// An annealing move reassigns ONE group, so only its source and destination
// memories change.  `BasicAssignmentState` keeps per memory a member bitset,
// the conflict counts that fix its port count (a live memory is feasible, so
// any conflicting pair or self-conflicting member means dual-port), the
// member aggregate the cost models read (count, summed words/reads/writes,
// max width and its holders) and its `memlib::CostTerm`.  Moves are priced,
// then committed.  `price` changes nothing: it checks the destination's
// feasibility on the bitsets, looks both memories' new member sets up in a
// direct-mapped memo (member bitset -> term, every word compared; only a
// miss runs the cost models) and returns the estimate `scalar_cost() +
// Δterms` with a rigorous error bound.  A rejected move costs a few bitset
// operations and, on memo hits, no model call.
//
// One source serves every member-set width; the template parameter is the
// bitset's word count:
//  * `OneWordAssignmentState` (`Words` = 1) covers up to 64 groups, every
//    shipped model.  A memory's member word sits in the struct with its
//    aggregate and term, a memo slot is one key word and the term's two
//    doubles (24 bytes), and the width rescan, the conflict degree and the
//    third-port rule are single-word bit operations.
//  * `AssignmentState` (`Words` = `kAnyWords`) reads the width
//    (`AssignmentProblem::conflict_words()`) at run time, keeps the member
//    bitsets in one array and a memo slot as the key words plus the term.
// Both hash a key the same way, so they hit, miss and price identically.
// Each state counts its memo lookups and misses (`memo_lookups()`,
// `memo_misses()`); the solver reports the totals of a run as
// `solver.sa.memo_lookups` and `solver.sa.memo_misses`.
//
// Correctness anchor: after every `commit`, `scalar_cost()` equals
// `CostWeights::scalarize(problem.evaluate(assignment))` bit for bit.  The
// port decision matches `simultaneous_accesses` on feasible sets, the sums
// are exact integers, a term is a pure function of its member set computed
// by the same `aggregate_cost_term` calls (so a memo hit cannot go stale),
// and `commit` sums the terms in memory-index order as `evaluate` does.
// Tests check this against a from-scratch oracle, against each other and
// against pinned goldens.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "alloc/assignment_problem.hpp"
#include "memlib/memory_cost.hpp"

namespace dtse::alloc {

/// A complete assignment with incrementally maintained cost, moved by
/// pricing a single-group move and committing it.  `Words` is the member
/// bitset's word count: a fixed count equal to the problem's
/// `conflict_words()`, or `kAnyWords` for any problem.
template <std::size_t Words>
class BasicAssignmentState {
 public:
  /// Slots of the direct-mapped memo: 96 KB per state up to 64 groups (24
  /// bytes a slot).  It answers about 4 in 5 lookups on the shared model
  /// over 6 to 14 memories (73% at 6, 75% at 8, 85% at 14; a test holds the
  /// 8-memory ratio at 70% or more).
  static constexpr std::size_t kMemoSlots = 4096;

  /// The price of a move: `exact_price() - scalar_cost()` lies within
  /// `slack` of `estimate - scalar_cost()` (derivation in `price`).
  struct Quote {
    double estimate = 0.0;
    double slack = 0.0;
  };

  BasicAssignmentState(const AssignmentProblem& problem, int memory_count,
                       const memlib::CostWeights& weights);

  /// Loads a complete assignment (one entry per group, each in
  /// [0, memory_count)).  Returns false when any memory is infeasible; the
  /// state must then be reset again before use.
  bool reset(const std::vector<int>& assignment);

  [[nodiscard]] const std::vector<int>& assignment() const { return assignment_; }

  /// Scalar objective of the current assignment; identical to scalarizing a
  /// from-scratch `AssignmentProblem::evaluate`.
  [[nodiscard]] double scalar_cost() const { return scalar_; }

  /// On-chip cost aggregate of the current assignment (off-chip channels do
  /// not participate in assignment moves).
  [[nodiscard]] memlib::CostTerm onchip_total() const {
    return {onchip_.onchip_area_mm2, onchip_.onchip_power_mw};
  }

  /// Prices moving `group` to another memory `to` and keeps the move
  /// pending until the next `price`, `reset` or `commit`; the state is
  /// unchanged.  nullopt when the move would need a tri-ported memory.
  [[nodiscard]] std::optional<Quote> price(std::size_t group, int to);

  /// Exact cost of the pending move: the index-order sum `commit` stores.
  [[nodiscard]] double exact_price() const;

  /// Applies the pending move; `scalar_cost()` becomes its exact cost.
  void commit();

  /// Memo lookups since construction: one per member set a `price` needed
  /// a term for (an emptied source memory needs none).
  [[nodiscard]] std::uint64_t memo_lookups() const { return memo_lookups_; }
  /// The lookups that ran the cost models.
  [[nodiscard]] std::uint64_t memo_misses() const { return memo_misses_; }

 private:
  /// Member words held inline by each memory; none when the width is read
  /// at run time and the bitsets live in `bits_`.
  static constexpr std::size_t kInlineWords = Words == kAnyWords ? 0 : Words;

  /// A memory's member bitset (inline widths), aggregate and term.
  struct MemoryState {
    [[no_unique_address]] std::array<std::uint64_t, kInlineWords> bits{};
    std::size_t members = 0;
    AssignmentProblem::GroupAggregates sum;  ///< width_bits: the widest member's
    std::size_t width_holders = 0;     ///< members at that width
    std::uint64_t pair_conflicts = 0;  ///< conflicting pairs inside the memory
    std::uint64_t self_conflicts = 0;  ///< self-conflicting members
    memlib::CostTerm term;

    /// Port count of a feasible member set (no triangles, no self-edges —
    /// the only states this engine keeps): 2 iff any conflict forces it.
    [[nodiscard]] int ports() const {
      return pair_conflicts > 0 || self_conflicts > 0 ? 2 : 1;
    }
  };
  /// Per-group figures copied from the problem: no checked accessor per move.
  struct GroupFigures {
    AssignmentProblem::GroupAggregates sum;
    bool self_conflicting = false;
  };
  /// The priced, not yet committed move and the terms it leaves behind.
  struct Pending {
    std::size_t group = 0;
    int from = -1;
    int to = -1;
    memlib::CostTerm from_term;
    memlib::CostTerm to_term;
    bool active = false;
  };

  /// Words per member set: the template width, or the problem's.
  [[nodiscard]] std::size_t words() const {
    if constexpr (Words == kAnyWords) {
      return words_;
    } else {
      return Words;
    }
  }
  /// Memory `m`'s member bitset.
  [[nodiscard]] std::uint64_t* bits(int m) {
    if constexpr (Words == kAnyWords) {
      return bits_.data() + static_cast<std::size_t>(m) * words_;
    } else {
      return memories_[static_cast<std::size_t>(m)].bits.data();
    }
  }

  /// Accounts `group` having joined (`joining`) or left `mem`, whose member
  /// bitset after the change is `members`: counts, sums and the max width,
  /// rescanned from `members` when the last widest member left.
  void account(MemoryState& mem, const std::uint64_t* members, std::size_t group,
               bool joining) const;
  /// `group`'s conflict neighbours among `members`.
  [[nodiscard]] std::uint64_t degree_in(const std::uint64_t* members,
                                        std::size_t group) const;
  /// The max width over `members`; `holders`, when given, receives how many
  /// members have it.
  int widest(const std::uint64_t* members, std::size_t* holders) const;

  /// Word `w` of memory `m`'s member set with `group` flipped in or out.
  [[nodiscard]] std::uint64_t moved_key(int m, std::size_t group, std::size_t w);
  /// The memo slot memory `m`'s moved member set hashes to.
  [[nodiscard]] std::uint64_t* memo_slot(int m, std::size_t group);
  /// Term of memory `m`'s member set with `group` added (`joining`) or
  /// removed, from its memo `slot`: a hit, or the model calls on a miss.
  /// Inlined into `price`, so the terms stay in registers: returned from a
  /// call, GCC packs them through the stack and stalls on store forwarding.
  [[gnu::always_inline]] memlib::CostTerm moved_term(int m, std::size_t group,
                                                     bool joining, std::uint64_t* slot);

  /// The per-memory terms summed in memory-index order, as
  /// `AssignmentProblem::evaluate` sums them, with the pending move's terms
  /// when `moved`.  `magnitude`, when given, receives |area_weight| *
  /// Σ|area| + |power_weight| * Σ|power| over the same terms.
  [[nodiscard]] memlib::CostSummary summed_terms(bool moved, double* magnitude) const;

  const AssignmentProblem* problem_;
  memlib::CostWeights weights_;
  int memory_count_;
  std::size_t words_;                   ///< bitset words per member set
  std::vector<GroupFigures> figures_;
  std::vector<int> assignment_;
  std::vector<MemoryState> memories_;
  std::vector<std::uint64_t> bits_;     ///< `kAnyWords`: memory m's bitset at m * words_
  /// kMemoSlots slots of `words() + 2` words: the member-set key (all zero =
  /// an empty slot), then the term's area and power bits.
  std::vector<std::uint64_t> memo_;
  std::uint64_t memo_lookups_ = 0;
  std::uint64_t memo_misses_ = 0;
  memlib::CostSummary onchip_;
  double scalar_ = 0.0;
  double magnitude_ = 0.0;  ///< `summed_terms`' magnitude: the scale of the slack
  Pending pending_;
};

/// The state for problems of up to 64 groups (`conflict_words()` == 1).
using OneWordAssignmentState = BasicAssignmentState<1>;
/// The state for any group count.
using AssignmentState = BasicAssignmentState<kAnyWords>;

extern template class BasicAssignmentState<1>;
extern template class BasicAssignmentState<kAnyWords>;

}  // namespace dtse::alloc
