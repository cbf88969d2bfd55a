#include "graph/conflict_graph.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace dtse::graph {

namespace {

bool edge_key_less(const ConflictGraph::Edge& x, const ConflictGraph::Edge& y) {
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

}  // namespace

void ConflictGraph::ensure_capacity(std::size_t nodes) {
  if (nodes <= capacity_) return;
  // Geometric growth keeps the rebuild amortized while group counts trickle
  // in one at a time from the scheduler.
  const std::size_t grown = std::max(nodes, capacity_ * 2);
  std::vector<std::int32_t> slot(grown * grown, -1);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    slot[edges_[i].a.index() * grown + edges_[i].b.index()] = static_cast<std::int32_t>(i);
  }
  slot_ = std::move(slot);
  capacity_ = grown;
}

void ConflictGraph::add_conflict(ir::BasicGroupId a, ir::BasicGroupId b, double weight) {
  DTSE_CHECK(a.valid() && b.valid(), "conflict endpoints must be valid groups");
  DTSE_CHECK(weight >= 0.0, "conflict weight must be non-negative");
  auto lo = a.index();
  auto hi = b.index();
  if (hi < lo) std::swap(lo, hi);
  ensure_capacity(hi + 1);
  auto& index = slot_[lo * capacity_ + hi];
  if (index < 0) {
    index = static_cast<std::int32_t>(edges_.size());
    edges_.push_back({ir::BasicGroupId(static_cast<std::uint32_t>(lo)),
                      ir::BasicGroupId(static_cast<std::uint32_t>(hi)), 0.0});
  }
  edges_[static_cast<std::size_t>(index)].weight += weight;
}

void ConflictGraph::merge(const ConflictGraph& other) {
  for (const auto& edge : other.edges_) add_conflict(edge.a, edge.b, edge.weight);
}

std::vector<ConflictGraph::Edge> ConflictGraph::edges() const {
  std::vector<Edge> result = edges_;
  std::sort(result.begin(), result.end(), edge_key_less);
  return result;
}

double ConflictGraph::total_weight() const {
  double total = 0.0;
  for (const auto& edge : edges_) total += edge.weight;
  return total;
}

int ConflictGraph::clique_lower_bound() const {
  // Collect the distinct vertices with at least one pairwise conflict, in
  // ascending id order (the greedy growth below is order-sensitive and must
  // stay deterministic).
  std::vector<ir::BasicGroupId> vertices;
  for (const auto& edge : edges_) {
    if (edge.a != edge.b && edge.weight > 0.0) {
      vertices.push_back(edge.a);
      vertices.push_back(edge.b);
    }
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());

  // Greedy clique growth from every vertex, keep the best.  Exact maximum
  // clique is NP-hard; for conflict graphs of a couple dozen groups the
  // greedy bound is tight enough to seed the allocation search.
  int best = vertices.empty() ? 0 : 1;
  for (const auto seed : vertices) {
    std::vector<ir::BasicGroupId> clique{seed};
    for (const auto candidate : vertices) {
      if (candidate == seed) continue;
      const bool adjacent_to_all =
          std::all_of(clique.begin(), clique.end(), [&](ir::BasicGroupId member) {
            return member != candidate && conflict_weight(member, candidate) > 0.0;
          });
      if (adjacent_to_all) clique.push_back(candidate);
    }
    best = std::max(best, static_cast<int>(clique.size()));
  }
  return best;
}

std::string ConflictGraph::to_string() const {
  std::ostringstream os;
  os << "conflict graph: " << edges_.size() << " edges, total weight " << total_weight()
     << '\n';
  for (const auto& edge : edges()) {
    if (edge.a == edge.b) {
      os << "  self " << edge.a << " (w=" << edge.weight << ")\n";
    } else {
      os << "  " << edge.a << " -- " << edge.b << " (w=" << edge.weight << ")\n";
    }
  }
  return os.str();
}

}  // namespace dtse::graph
