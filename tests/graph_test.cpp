// Tests for digraph utilities, the conflict graph and MACP analysis.
#include <gtest/gtest.h>

#include "graph/conflict_graph.hpp"
#include "graph/digraph.hpp"
#include "graph/macp.hpp"
#include "support/check.hpp"

namespace dtse::graph {
namespace {

TEST(Digraph, TopologicalOrderOfChain) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Digraph, CycleHasNoTopologicalOrder) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_FALSE(g.topological_order().has_value());
  EXPECT_FALSE(g.longest_path({1.0, 1.0}).has_value());
}

TEST(Digraph, LongestPathWeighted) {
  // Diamond: 0 -> {1, 2} -> 3; node 2 is heavy.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto path = g.longest_path({1.0, 1.0, 5.0, 2.0});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(*path, 1.0 + 5.0 + 2.0);
}

TEST(Digraph, EmptyGraphHasZeroPath) {
  Digraph g(0);
  const auto path = g.longest_path({});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(*path, 0.0);
}

TEST(Digraph, IsolatedNodesPathIsMaxWeight) {
  Digraph g(3);
  const auto path = g.longest_path({1.0, 7.0, 2.0});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(*path, 7.0);
}

TEST(Digraph, EarliestStartRespectsDependencies) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto start = g.earliest_start({2.0, 3.0, 1.0});
  ASSERT_TRUE(start.has_value());
  EXPECT_DOUBLE_EQ((*start)[0], 0.0);
  EXPECT_DOUBLE_EQ((*start)[1], 2.0);
  EXPECT_DOUBLE_EQ((*start)[2], 5.0);
}

TEST(Digraph, EdgeBoundsChecked) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), support::ContractError);
  EXPECT_THROW((void)g.successors(5), support::ContractError);
}

TEST(ConflictGraph, AccumulatesWeights) {
  ConflictGraph g;
  const ir::BasicGroupId a(0), b(1);
  g.add_conflict(a, b, 2.0);
  g.add_conflict(b, a, 3.0);  // order-insensitive
  EXPECT_TRUE(g.conflicts(a, b));
  EXPECT_DOUBLE_EQ(g.conflict_weight(a, b), 5.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(ConflictGraph, SelfConflicts) {
  ConflictGraph g;
  const ir::BasicGroupId a(0);
  EXPECT_FALSE(g.has_self_conflict(a));
  g.add_conflict(a, a, 1.5);
  EXPECT_TRUE(g.has_self_conflict(a));
  EXPECT_DOUBLE_EQ(g.self_conflict_weight(a), 1.5);
}

TEST(ConflictGraph, MergeCombines) {
  ConflictGraph g1, g2;
  const ir::BasicGroupId a(0), b(1), c(2);
  g1.add_conflict(a, b, 1.0);
  g2.add_conflict(a, b, 2.0);
  g2.add_conflict(b, c, 4.0);
  g1.merge(g2);
  EXPECT_DOUBLE_EQ(g1.conflict_weight(a, b), 3.0);
  EXPECT_DOUBLE_EQ(g1.conflict_weight(b, c), 4.0);
  EXPECT_EQ(g1.edges().size(), 2u);
}

TEST(ConflictGraph, CliqueLowerBound) {
  ConflictGraph g;
  const ir::BasicGroupId a(0), b(1), c(2), d(3);
  EXPECT_EQ(g.clique_lower_bound(), 0);
  g.add_conflict(a, b);
  EXPECT_EQ(g.clique_lower_bound(), 2);
  g.add_conflict(b, c);
  g.add_conflict(a, c);
  EXPECT_EQ(g.clique_lower_bound(), 3);
  g.add_conflict(c, d);  // pendant edge does not grow the clique
  EXPECT_EQ(g.clique_lower_bound(), 3);
}

TEST(ConflictGraph, ZeroWeightEdgesDoNotCount) {
  ConflictGraph g;
  const ir::BasicGroupId a(0), b(1);
  g.add_conflict(a, b, 0.0);
  EXPECT_FALSE(g.has_self_conflict(a));
  EXPECT_EQ(g.clique_lower_bound(), 0);
}

TEST(ConflictGraph, EdgesAreSortedRegardlessOfInsertionOrder) {
  // The flat edge store appends in arrival order; edges() must present the
  // ordered-map view the first implementation had.
  ConflictGraph g;
  g.add_conflict(ir::BasicGroupId(7), ir::BasicGroupId(2), 1.0);
  g.add_conflict(ir::BasicGroupId(0), ir::BasicGroupId(5), 2.0);
  g.add_conflict(ir::BasicGroupId(3), ir::BasicGroupId(3), 3.0);
  g.add_conflict(ir::BasicGroupId(0), ir::BasicGroupId(1), 4.0);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 4u);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const bool ordered = edges[i].a < edges[i + 1].a ||
                         (edges[i].a == edges[i + 1].a && edges[i].b < edges[i + 1].b);
    EXPECT_TRUE(ordered) << "edges()[" << i << "] out of order";
  }
  EXPECT_EQ(edges[0].a, ir::BasicGroupId(0));
  EXPECT_EQ(edges[0].b, ir::BasicGroupId(1));
  EXPECT_EQ(edges[3].a, ir::BasicGroupId(3));
  EXPECT_EQ(edges[3].b, ir::BasicGroupId(3));
  // Endpoints stay normalized: a < b for pairs, even when inserted reversed.
  EXPECT_EQ(edges[2].a, ir::BasicGroupId(2));
  EXPECT_EQ(edges[2].b, ir::BasicGroupId(7));
  EXPECT_DOUBLE_EQ(edges[2].weight, 1.0);
}

TEST(ConflictGraph, MergeAccumulatesSelfConflictsAndCliques) {
  // merge + clique_lower_bound + self-conflict queries together against the
  // indexed backing store: a triangle {0,1,2} split across two graphs plus a
  // self-conflict merged on top of an existing pairwise edge set.
  ConflictGraph g1, g2;
  const ir::BasicGroupId a(0), b(1), c(2);
  g1.add_conflict(a, b, 1.0);
  g1.add_conflict(b, c, 1.0);
  g2.add_conflict(a, c, 2.0);
  g2.add_conflict(b, b, 0.5);
  g2.add_conflict(a, b, 3.0);
  g1.merge(g2);
  EXPECT_EQ(g1.clique_lower_bound(), 3);
  EXPECT_DOUBLE_EQ(g1.conflict_weight(a, b), 4.0);
  EXPECT_TRUE(g1.has_self_conflict(b));
  EXPECT_FALSE(g1.has_self_conflict(a));
  EXPECT_DOUBLE_EQ(g1.self_conflict_weight(b), 0.5);
  EXPECT_EQ(g1.edge_count(), 4u);
  EXPECT_DOUBLE_EQ(g1.total_weight(), 7.5);
  // Self-conflicts do not count toward the pairwise clique bound.
  ConflictGraph selfs;
  selfs.add_conflict(a, a, 9.0);
  EXPECT_EQ(selfs.clique_lower_bound(), 0);
}

TEST(ConflictGraph, QueriesOnUnseenIdsAreCleanMisses) {
  ConflictGraph g;
  g.add_conflict(ir::BasicGroupId(1), ir::BasicGroupId(2), 1.0);
  // Ids beyond anything the backing store has seen must read as absent, not
  // out-of-bounds.
  EXPECT_FALSE(g.conflicts(ir::BasicGroupId(40), ir::BasicGroupId(41)));
  EXPECT_DOUBLE_EQ(g.conflict_weight(ir::BasicGroupId(40), ir::BasicGroupId(2)), 0.0);
  EXPECT_FALSE(g.has_self_conflict(ir::BasicGroupId(40)));
  // And a later high-id edge regrows the store without disturbing old edges.
  g.add_conflict(ir::BasicGroupId(40), ir::BasicGroupId(2), 2.5);
  EXPECT_DOUBLE_EQ(g.conflict_weight(ir::BasicGroupId(2), ir::BasicGroupId(40)), 2.5);
  EXPECT_TRUE(g.conflicts(ir::BasicGroupId(1), ir::BasicGroupId(2)));
}

TEST(ConflictGraph, RejectsNegativeWeightAndInvalidIds) {
  ConflictGraph g;
  EXPECT_THROW(g.add_conflict(ir::BasicGroupId(0), ir::BasicGroupId(1), -1.0),
               support::ContractError);
  EXPECT_THROW(g.add_conflict(ir::BasicGroupId(), ir::BasicGroupId(1), 1.0),
               support::ContractError);
}

// --- MACP ------------------------------------------------------------------

ir::Application chain_app(std::uint64_t iterations) {
  ir::Application app("macp");
  const auto small = app.add_group({"small", 64, 8});
  const auto big = app.add_group({"big", 1 << 20, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = iterations;
  // chain: read big -> read small -> write small; plus a free-floating read.
  body.accesses.push_back({big, ir::AccessKind::kRead, 1.0});
  body.accesses.push_back({small, ir::AccessKind::kRead, 1.0});
  body.accesses.push_back({small, ir::AccessKind::kWrite, 1.0});
  body.accesses.push_back({small, ir::AccessKind::kRead, 1.0});
  body.deps = {{0, 1}, {1, 2}};
  app.add_body(body);
  return app;
}

TEST(Macp, CriticalPathUsesLatencies) {
  const auto app = chain_app(100);
  const auto report = analyze_macp(app);
  ASSERT_EQ(report.bodies.size(), 1u);
  // big is off-chip (2 cycles), small on-chip (1): chain = 2 + 1 + 1 = 4.
  EXPECT_DOUBLE_EQ(report.bodies[0].path_cycles, 4.0);
  EXPECT_DOUBLE_EQ(report.macp_cycles, 400.0);
  // serial: 2 + 1 + 1 + 1 = 5 per iteration.
  EXPECT_DOUBLE_EQ(report.serial_cycles, 500.0);
  EXPECT_GT(report.parallelism_headroom(), 1.0);
}

TEST(Macp, FeasibilityCheck) {
  const auto app = chain_app(100);
  const auto report = analyze_macp(app);
  EXPECT_TRUE(report.feasible_within(400.0));
  EXPECT_FALSE(report.feasible_within(399.0));
}

TEST(Macp, BottleneckIdentified) {
  auto app = chain_app(10);
  ir::LoopBody heavy;
  heavy.name = "heavy";
  heavy.iterations = 100000;
  heavy.accesses.push_back({ir::BasicGroupId(0), ir::AccessKind::kRead, 1.0});
  app.add_body(heavy);
  const auto report = analyze_macp(app);
  EXPECT_EQ(report.bottleneck, ir::LoopBodyId(1));
  EXPECT_NE(report.to_string().find("heavy"), std::string::npos);
}

TEST(Macp, ConditionalAccessesWeightedByProbability) {
  ir::Application app("cond");
  const auto g = app.add_group({"g", 64, 8});
  ir::LoopBody body;
  body.name = "loop";
  body.iterations = 10;
  body.accesses.push_back({g, ir::AccessKind::kRead, 0.25});
  app.add_body(body);
  const auto report = analyze_macp(app);
  EXPECT_DOUBLE_EQ(report.bodies[0].path_cycles, 0.25);
}

}  // namespace
}  // namespace dtse::graph
