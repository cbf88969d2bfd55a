#include "alloc/allocator.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "graph/macp.hpp"
#include "support/check.hpp"

namespace dtse::alloc {

namespace {

/// Access-weighted small-stride fraction of a group: the page-hit estimate
/// for EDO page mode (an EDO page spans hundreds of words, so any dense
/// access pattern stays within it).
double page_hit_fraction(const ir::Application& app, ir::BasicGroupId id) {
  double weighted = 0.0;
  double total = 0.0;
  for (const auto body_id : app.body_ids()) {
    const auto& body = app.body(body_id);
    for (const auto& access : body.accesses) {
      if (access.group != id) continue;
      const double per_frame =
          access.per_iteration * static_cast<double>(body.iterations);
      weighted += per_frame * access.dense_fraction;
      total += per_frame;
    }
  }
  return total > 0.0 ? weighted / total : 0.0;
}

}  // namespace

std::pair<std::vector<ir::BasicGroupId>, std::vector<ir::BasicGroupId>>
MemoryAllocator::partition_groups(const ir::Application& app) {
  std::vector<ir::BasicGroupId> onchip;
  std::vector<ir::BasicGroupId> offchip;
  for (const auto id : app.group_ids()) {
    (graph::presumed_offchip(app.group(id)) ? offchip : onchip).push_back(id);
  }
  return {std::move(onchip), std::move(offchip)};
}

std::vector<OffchipChannel> MemoryAllocator::build_offchip(
    const ir::Application& app, const std::vector<ir::BasicGroupId>& groups,
    const graph::ConflictGraph& conflicts, const AllocationOptions& options) const {
  // Every off-chip basic group gets its own channel (own chip-select and
  // part set, as in the paper's board design).  Pairwise conflicts between
  // off-chip groups are therefore honoured by construction; a self-conflict
  // forces the expensive dual-ported (duplicated bank) configuration.
  std::vector<OffchipChannel> result;
  const double frame_seconds = library_.clock().seconds(options.frame_cycles);
  for (const auto id : groups) {
    OffchipChannel channel;
    channel.groups = {id};
    const auto& group = app.group(id);
    channel.words = group.words;
    channel.width_bits = group.bitwidth;
    const auto totals = app.totals(id);
    channel.ports = conflicts.has_self_conflict(id) ? memlib::PortCount::kDual
                                                    : memlib::PortCount::kSingle;
    const double page_hit = page_hit_fraction(app, id);
    const double rate = frame_seconds > 0.0 ? totals.total() / frame_seconds : 0.0;
    channel.selection = library_.dram().select(channel.words, channel.width_bits,
                                               channel.ports, rate, page_hit);
    channel.power_mw = library_.offchip_power_mw(
        channel.selection, static_cast<std::uint64_t>(totals.reads),
        static_cast<std::uint64_t>(totals.writes), options.frame_cycles);
    result.push_back(std::move(channel));
  }
  return result;
}

AllocationResult MemoryAllocator::allocate(const ir::Application& app,
                                           const graph::ConflictGraph& conflicts,
                                           const AllocationOptions& options) const {
  DTSE_CHECK(options.frame_cycles > 0, "frame cycle count must be positive");
  auto [onchip_groups, offchip_groups] = partition_groups(app);

  AllocationResult result;
  result.offchip = build_offchip(app, offchip_groups, conflicts, options);
  for (const auto& channel : result.offchip) {
    result.summary.offchip_power_mw += channel.power_mw;
  }

  const AssignmentProblem problem(app, onchip_groups, conflicts, library_,
                                  options.frame_cycles);

  AssignmentSolution best;
  best.scalar_cost = std::numeric_limits<double>::max();
  int best_n = 0;
  if (options.onchip_memories > 0) {
    best = solve_assignment(problem, options.onchip_memories, options.solver);
    best_n = options.onchip_memories;
  } else {
    // The reported effort covers every memory count searched, not only the
    // winning one.
    std::uint64_t nodes = 0;
    for (int n = problem.min_memories(); n <= options.max_onchip_memories; ++n) {
      auto candidate = solve_assignment(problem, n, options.solver);
      nodes += candidate.nodes_explored;
      if (outranks(candidate.feasible, candidate.scalar_cost, best.feasible,
                   best.scalar_cost)) {
        best_n = n;
        best = std::move(candidate);
      }
    }
    best.nodes_explored = nodes;
  }

  result.requested_memories = best_n;
  result.search_nodes = best.nodes_explored;
  result.accepted_moves = best.accepted_moves;
  result.sa_chains = std::move(best.chains);
  result.feasible = best.feasible &&
                    std::all_of(result.offchip.begin(), result.offchip.end(),
                                [](const OffchipChannel& c) {
                                  return c.selection.feasible;
                                });
  if (!best.feasible) return result;

  // Materialize the memory instances from the winning assignment.
  const int n = options.onchip_memories > 0 ? options.onchip_memories : best_n;
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(std::max(n, 1)));
  for (std::size_t i = 0; i < best.assignment.size(); ++i) {
    members[static_cast<std::size_t>(best.assignment[i])].push_back(i);
  }
  for (const auto& m : members) {
    if (m.empty()) continue;
    auto mem = problem.build_memory(m);
    DTSE_ASSERT(mem.has_value(), "winning assignment must be feasible");
    result.summary.onchip_area_mm2 += mem->cost.area_mm2;
    result.summary.onchip_power_mw += mem->power_mw;
    result.onchip.push_back(std::move(*mem));
  }
  return result;
}

std::string AllocationResult::to_string(const ir::Application& app) const {
  std::ostringstream os;
  os << "allocation (" << requested_memories << " on-chip memories requested): "
     << (feasible ? "feasible" : "INFEASIBLE") << '\n';
  int idx = 0;
  for (const auto& mem : onchip) {
    os << "  RAM" << idx++ << ": " << mem.words << "w x " << mem.width_bits << "b, "
       << memlib::port_count(mem.ports) << " port(s), " << mem.cost.area_mm2 << " mm^2, "
       << mem.power_mw << " mW:";
    for (const auto id : mem.groups) os << ' ' << app.group(id).name;
    os << '\n';
  }
  idx = 0;
  for (const auto& channel : offchip) {
    os << "  DRAM" << idx++ << ": " << channel.words << "w x " << channel.width_bits
       << "b, " << memlib::port_count(channel.ports) << " port(s), " << channel.power_mw
       << " mW, " << channel.selection.parts.size() << " part(s):";
    for (const auto id : channel.groups) os << ' ' << app.group(id).name;
    os << '\n';
  }
  return os.str();
}

}  // namespace dtse::alloc
