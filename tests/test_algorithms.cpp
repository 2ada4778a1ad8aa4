#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <set>

#include "paper_examples.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

TEST(TopologicalOrder, RespectsEdgesAndIsDeterministic) {
  const TaskGraph g = testing::figure9_graph2();
  const auto order = topological_order(g);
  ASSERT_EQ(order.size(), g.node_count());
  std::vector<std::size_t> pos(g.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = i;
  for (EdgeId e = 0; static_cast<std::size_t>(e) < g.edge_count(); ++e) {
    EXPECT_LT(pos[static_cast<std::size_t>(g.edge(e).src)],
              pos[static_cast<std::size_t>(g.edge(e).dst)]);
  }
  EXPECT_EQ(order, topological_order(g));  // deterministic
}

TEST(TopologicalOrder, ThrowsOnCycle) {
  TaskGraph g;
  const NodeId a = g.add_source(4, "a");
  const NodeId b = g.add_compute("b");
  const NodeId c = g.add_compute("c");
  g.add_edge(a, b, 4);
  g.add_edge(b, c, 4);
  g.add_edge(c, b, 4);
  EXPECT_FALSE(is_acyclic(g));
  EXPECT_THROW(topological_order(g), std::invalid_argument);
}

TEST(TopologicalWaves, PartitionRespectsEdges) {
  const TaskGraph g = make_gaussian_elimination(6, 11);
  const TopoWaves waves = topological_waves(g);
  ASSERT_EQ(waves.order.size(), static_cast<std::size_t>(g.node_count()));
  ASSERT_GE(waves.wave_count(), 1u);
  // wave_of[v]: index of the wave containing v; every edge must point to a
  // strictly later wave.
  std::vector<std::size_t> wave_of(waves.order.size());
  for (std::size_t w = 0; w + 1 < waves.offsets.size(); ++w) {
    for (std::size_t i = waves.offsets[w]; i < waves.offsets[w + 1]; ++i) {
      wave_of[static_cast<std::size_t>(waves.order[i])] = w;
    }
  }
  for (const Edge& e : g.edges()) {
    EXPECT_LT(wave_of[static_cast<std::size_t>(e.src)], wave_of[static_cast<std::size_t>(e.dst)]);
  }
  // Reverse waves: every edge points to a strictly later reverse-wave of its
  // source, i.e. successors settle first.
  const TopoWaves reverse = topological_waves(g, /*reverse=*/true);
  std::vector<std::size_t> rev_wave_of(reverse.order.size());
  for (std::size_t w = 0; w + 1 < reverse.offsets.size(); ++w) {
    for (std::size_t i = reverse.offsets[w]; i < reverse.offsets[w + 1]; ++i) {
      rev_wave_of[static_cast<std::size_t>(reverse.order[i])] = w;
    }
  }
  for (const Edge& e : g.edges()) {
    EXPECT_LT(rev_wave_of[static_cast<std::size_t>(e.dst)],
              rev_wave_of[static_cast<std::size_t>(e.src)]);
  }
}

TEST(Levels, ElementwiseChainCountsHops) {
  TaskGraph g;
  NodeId prev = g.add_source(4, "s");
  for (int i = 0; i < 3; ++i) {
    const NodeId next = g.add_compute("c" + std::to_string(i));
    g.add_edge(prev, next, 4);
    prev = next;
  }
  g.declare_output(prev, 4);
  const auto levels = node_levels(g);
  EXPECT_EQ(levels[0], Rational(1));
  EXPECT_EQ(levels[1], Rational(2));
  EXPECT_EQ(levels[3], Rational(4));
  EXPECT_EQ(graph_level(g), Rational(4));
}

TEST(Levels, UpsamplersAddTheirRate) {
  // Section 4.2.3: L(v) = max(R(v), 1) + max parent level.
  const TaskGraph g = testing::figure8_graph();
  const auto levels = node_levels(g);
  EXPECT_EQ(levels[0], Rational(1));
  EXPECT_EQ(levels[1], Rational(2));  // downsampler contributes 1
  EXPECT_EQ(levels[3], Rational(3));  // upsampler R=2 contributes 2
  EXPECT_EQ(levels[4], Rational(4));
}

TEST(BufferSplitWccs, SplitsAtBuffers) {
  const TaskGraph g = testing::buffer_split_example();
  const BufferSplitWccs wccs = buffer_split_wccs(g);
  EXPECT_EQ(wccs.count, 2);
  const NodeId s = 0, e1 = 1, d = 2, buf = 3, u1 = 4, e2 = 5;
  EXPECT_EQ(wccs.node_wcc[buf], -1);  // buffers belong to no component
  EXPECT_EQ(wccs.node_wcc[s], wccs.node_wcc[e1]);
  EXPECT_EQ(wccs.node_wcc[e1], wccs.node_wcc[d]);
  EXPECT_EQ(wccs.node_wcc[u1], wccs.node_wcc[e2]);
  EXPECT_NE(wccs.node_wcc[d], wccs.node_wcc[u1]);
  // Edge membership: producer-side edges live in WCC0, consumer-side in WCC1.
  EXPECT_EQ(wccs.edge_wcc(g, 2), wccs.node_wcc[d]);   // d -> buffer
  EXPECT_EQ(wccs.edge_wcc(g, 3), wccs.node_wcc[u1]);  // buffer -> u1
}

TEST(BufferSplitWccs, IndependentConsumersOfOneBufferStaySeparate) {
  // Two consumers re-reading the same buffer are independent memory streams
  // (Figure 4 graph 1 relies on this: D and E execute one after the other).
  TaskGraph g;
  const NodeId x = g.add_source(8, "x");
  const NodeId buf = g.add_buffer("buf");
  const NodeId a = g.add_compute("a");
  const NodeId b = g.add_compute("b");
  g.add_edge(x, buf, 8);
  g.add_edge(buf, a, 8);
  g.add_edge(buf, b, 8);
  g.declare_output(a, 8);
  g.declare_output(b, 8);
  const BufferSplitWccs wccs = buffer_split_wccs(g);
  EXPECT_EQ(wccs.count, 3);
  EXPECT_NE(wccs.node_wcc[a], wccs.node_wcc[b]);
}

TEST(BufferSplitWccs, SingleComponentWithoutBuffers) {
  const TaskGraph g = testing::figure9_graph1();
  const BufferSplitWccs wccs = buffer_split_wccs(g);
  EXPECT_EQ(wccs.count, 1);
}

TEST(BufferSupernodeDag, AcyclicForValidPlacement) {
  EXPECT_TRUE(buffer_supernode_dag_is_acyclic(testing::buffer_split_example()));
  EXPECT_TRUE(buffer_supernode_dag_is_acyclic(testing::figure8_graph()));
}

TEST(BufferSupernodeDag, DetectsCycleThroughBuffer) {
  TaskGraph g;
  const NodeId x = g.add_source(4, "x");
  const NodeId buf = g.add_buffer("buf");
  const NodeId c = g.add_compute("c");
  const NodeId join = g.add_compute("join");
  g.add_edge(x, buf, 4);
  g.add_edge(x, c, 4);
  g.add_edge(buf, join, 4);
  g.add_edge(c, join, 4);
  g.declare_output(c, 4);
  g.declare_output(join, 4);
  EXPECT_FALSE(buffer_supernode_dag_is_acyclic(g));
}

TEST(UndirectedCycles, TreeHasNone) {
  const std::vector<std::pair<std::int32_t, std::int32_t>> edges{{0, 1}, {0, 2}, {1, 3}};
  const auto on_cycle = edges_on_undirected_cycles(4, edges);
  for (const bool b : on_cycle) EXPECT_FALSE(b);
}

TEST(UndirectedCycles, DiamondIsFullyCyclic) {
  const std::vector<std::pair<std::int32_t, std::int32_t>> edges{
      {0, 1}, {0, 2}, {1, 3}, {2, 3}};
  const auto on_cycle = edges_on_undirected_cycles(4, edges);
  for (const bool b : on_cycle) EXPECT_TRUE(b);
}

TEST(UndirectedCycles, MixedBridgeAndCycle) {
  // 0-1-2-0 triangle with a pendant chain 2-3-4.
  const std::vector<std::pair<std::int32_t, std::int32_t>> edges{
      {0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}};
  const auto on_cycle = edges_on_undirected_cycles(5, edges);
  EXPECT_TRUE(on_cycle[0]);
  EXPECT_TRUE(on_cycle[1]);
  EXPECT_TRUE(on_cycle[2]);
  EXPECT_FALSE(on_cycle[3]);
  EXPECT_FALSE(on_cycle[4]);
}

TEST(UndirectedCycles, ParallelEdgesFormACycle) {
  const std::vector<std::pair<std::int32_t, std::int32_t>> edges{{0, 1}, {0, 1}};
  const auto on_cycle = edges_on_undirected_cycles(2, edges);
  EXPECT_TRUE(on_cycle[0]);
  EXPECT_TRUE(on_cycle[1]);
}

TEST(UndirectedCycles, DisconnectedComponents) {
  const std::vector<std::pair<std::int32_t, std::int32_t>> edges{
      {0, 1}, {2, 3}, {3, 4}, {4, 2}};
  const auto on_cycle = edges_on_undirected_cycles(5, edges);
  EXPECT_FALSE(on_cycle[0]);
  EXPECT_TRUE(on_cycle[1]);
  EXPECT_TRUE(on_cycle[2]);
  EXPECT_TRUE(on_cycle[3]);
}

}  // namespace
}  // namespace sts
