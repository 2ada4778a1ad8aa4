#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "fuzz_specs.hpp"
#include "ml/models.hpp"
#include "paper_examples.hpp"
#include "support/prng.hpp"
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

TEST(UnionFind, UniteMergesClassesUnderTheSecondRoot) {
  std::vector<NodeId> parent(6);
  std::iota(parent.begin(), parent.end(), NodeId{0});
  unite(parent, 0, 1);
  unite(parent, 2, 3);
  EXPECT_EQ(find_root(parent, 0), 1);
  EXPECT_EQ(find_root(parent, 2), 3);
  unite(parent, 1, 3);  // {0, 1} goes under {2, 3}'s root
  for (const NodeId v : {0, 1, 2, 3}) EXPECT_EQ(find_root(parent, v), 3) << "node " << v;
  EXPECT_EQ(find_root(parent, 4), 4);
  EXPECT_EQ(find_root(parent, 5), 5);
  unite(parent, 0, 2);  // already one class: a no-op
  EXPECT_EQ(find_root(parent, 0), 3);
  // Finds halve paths: every node of the class now sits at most two hops
  // from the root, and the root is unchanged.
  for (const NodeId v : {0, 1, 2}) {
    const NodeId up = parent[static_cast<std::size_t>(v)];
    EXPECT_TRUE(up == 3 || parent[static_cast<std::size_t>(up)] == 3) << "node " << v;
  }
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

/// True when u and v stay connected in the undirected multigraph `edges`
/// without edge `skip` (breadth-first search).
bool connected_without(std::size_t n,
                       const std::vector<std::pair<std::int32_t, std::int32_t>>& edges,
                       std::size_t skip, std::int32_t u, std::int32_t v) {
  std::vector<std::vector<std::int32_t>> adj(n);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i == skip) continue;
    adj[static_cast<std::size_t>(edges[i].first)].push_back(edges[i].second);
    adj[static_cast<std::size_t>(edges[i].second)].push_back(edges[i].first);
  }
  std::vector<bool> seen(n, false);
  std::queue<std::int32_t> frontier;
  seen[static_cast<std::size_t>(u)] = true;
  frontier.push(u);
  while (!frontier.empty()) {
    const std::int32_t x = frontier.front();
    frontier.pop();
    for (const std::int32_t y : adj[static_cast<std::size_t>(x)]) {
      if (!seen[static_cast<std::size_t>(y)]) {
        seen[static_cast<std::size_t>(y)] = true;
        frontier.push(y);
      }
    }
  }
  return seen[static_cast<std::size_t>(v)];
}

TEST(UndirectedCycles, FlagsExactlyTheEdgesWhoseEndpointsStayConnectedWithoutThem) {
  // Random small multigraphs: nodes split into up to four groups that only
  // connect inside themselves (several components, isolated nodes), with
  // parallel copies and the odd self-loop.
  Prng rng(2024);
  int with_parallel = 0;
  int with_isolated = 0;
  int with_components = 0;
  for (int trial = 0; trial < 2500; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 14));
    const std::int64_t groups = rng.uniform_int(1, 4);
    std::vector<std::int64_t> group(n);
    for (std::int64_t& g : group) g = rng.uniform_int(0, groups - 1);
    std::vector<std::pair<std::int32_t, std::int32_t>> edges;
    const auto last = static_cast<std::int64_t>(n) - 1;
    const std::int64_t target = rng.uniform_int(0, 2 * (last + 1));
    bool parallel = false;
    for (std::int64_t k = 0; k < target; ++k) {
      if (!edges.empty() && rng.uniform_int(0, 5) == 0) {
        edges.push_back(edges[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))]);
        parallel = true;
        continue;
      }
      const auto u = static_cast<std::int32_t>(rng.uniform_int(0, last));
      const auto v = static_cast<std::int32_t>(rng.uniform_int(0, last));
      if (group[static_cast<std::size_t>(u)] != group[static_cast<std::size_t>(v)]) continue;
      if (u == v && rng.uniform_int(0, 3) != 0) continue;  // keep self-loops rare
      edges.emplace_back(u, v);
    }

    std::vector<int> degree(n, 0);
    std::set<std::int64_t> touched;
    for (const auto& [u, v] : edges) {
      ++degree[static_cast<std::size_t>(u)];
      ++degree[static_cast<std::size_t>(v)];
      touched.insert(group[static_cast<std::size_t>(u)]);
    }
    with_parallel += parallel ? 1 : 0;
    with_isolated += std::count(degree.begin(), degree.end(), 0) > 0 && !edges.empty() ? 1 : 0;
    with_components += touched.size() >= 2 ? 1 : 0;

    const std::vector<bool> on_cycle = edges_on_undirected_cycles(n, edges);
    ASSERT_EQ(on_cycle.size(), edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      ASSERT_EQ(on_cycle[i], connected_without(n, edges, i, edges[i].first, edges[i].second))
          << "trial " << trial << ", edge " << i << " (" << edges[i].first << ", "
          << edges[i].second << ")";
    }
  }
  EXPECT_GE(with_parallel, 500);
  EXPECT_GE(with_isolated, 500);
  EXPECT_GE(with_components, 500);
}

// ------------------------------------ differential vs the former kernels
// buffer_split_wccs runs on the library's one union-find (find_root) and
// buffer_supernode_dag_is_acyclic on its one supernode DAG builder and Kahn
// walk (buffer_supernode_dag, SupernodeDag::kahn_order), which
// streaming_depth shares. These are the implementations they replaced, kept
// as references: a union-find class of their own, and an early-exit walk
// over per-supernode adjacency vectors.

class ReferenceUnionFind {
 public:
  explicit ReferenceUnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

BufferSplitWccs reference_buffer_split_wccs(const TaskGraph& graph) {
  const std::size_t n = graph.node_count();
  ReferenceUnionFind uf(n);
  for (EdgeId e = 0; static_cast<std::size_t>(e) < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(e);
    if (graph.kind(edge.src) != NodeKind::kBuffer && graph.kind(edge.dst) != NodeKind::kBuffer) {
      uf.unite(static_cast<std::size_t>(edge.src), static_cast<std::size_t>(edge.dst));
    }
  }
  BufferSplitWccs result;
  result.node_wcc.assign(n, -1);
  std::vector<std::int32_t> compact(n, -1);
  std::int32_t next = 0;
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (graph.kind(v) == NodeKind::kBuffer) continue;
    const std::size_t root = uf.find(static_cast<std::size_t>(v));
    if (compact[root] < 0) compact[root] = next++;
    result.node_wcc[static_cast<std::size_t>(v)] = compact[root];
  }
  result.count = next;
  return result;
}

bool reference_supernode_dag_is_acyclic(const TaskGraph& graph) {
  const BufferSplitWccs wccs = reference_buffer_split_wccs(graph);
  const auto n = static_cast<std::size_t>(wccs.count);
  std::vector<std::vector<std::int32_t>> adj(n);
  std::vector<std::size_t> deg(n, 0);
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (graph.kind(v) != NodeKind::kBuffer) continue;
    for (const EdgeId in : graph.in_edges(v)) {
      const NodeId writer = graph.edge(in).src;
      if (graph.kind(writer) == NodeKind::kBuffer) return false;  // buffer chain
      const auto tail = wccs.node_wcc[static_cast<std::size_t>(writer)];
      for (const EdgeId out : graph.out_edges(v)) {
        const NodeId reader = graph.edge(out).dst;
        if (graph.kind(reader) == NodeKind::kBuffer) return false;
        const auto head = wccs.node_wcc[static_cast<std::size_t>(reader)];
        if (tail == head) return false;  // cycle within one WCC
        adj[static_cast<std::size_t>(tail)].push_back(head);
        ++deg[static_cast<std::size_t>(head)];
      }
    }
  }
  std::vector<std::int32_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    if (deg[i] == 0) stack.push_back(static_cast<std::int32_t>(i));
  }
  std::size_t seen = 0;
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    ++seen;
    for (const auto w : adj[static_cast<std::size_t>(u)]) {
      if (--deg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
    }
  }
  return seen == n;
}

::testing::AssertionResult same_wccs(const TaskGraph& graph) {
  const BufferSplitWccs got = buffer_split_wccs(graph);
  const BufferSplitWccs want = reference_buffer_split_wccs(graph);
  if (got.count != want.count) {
    return ::testing::AssertionFailure() << got.count << " components vs " << want.count;
  }
  for (std::size_t v = 0; v < want.node_wcc.size(); ++v) {
    if (got.node_wcc[v] != want.node_wcc[v]) {
      return ::testing::AssertionFailure() << "node " << v << ": component " << got.node_wcc[v]
                                           << " vs " << want.node_wcc[v];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SupernodeDagDifferential, VerdictsMatchTheFormerCheck) {
  // Most reroute_through_buffers graphs close a cycle over buffer-split
  // components (see fuzz_specs.hpp), so both verdicts are exercised; every
  // cut_through_buffers graph is acyclic.
  int graphs = 0;
  int cyclic = 0;
  int acyclic = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 500; ++seed, ++graphs) {
      const TaskGraph base =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      const std::uint64_t salt = seed * 4 + static_cast<std::uint64_t>(shape);
      const TaskGraph rerouted = testing::reroute_through_buffers(base, salt);
      const bool verdict = buffer_supernode_dag_is_acyclic(rerouted);
      ASSERT_EQ(verdict, reference_supernode_dag_is_acyclic(rerouted))
          << "shape " << shape << ", seed " << seed;
      (verdict ? acyclic : cyclic) += 1;
      const TaskGraph cut = testing::cut_through_buffers(base, salt);
      ASSERT_TRUE(buffer_supernode_dag_is_acyclic(cut)) << "cut, shape " << shape << ", seed " << seed;
      ASSERT_TRUE(reference_supernode_dag_is_acyclic(cut));
    }
  }
  EXPECT_EQ(graphs, 2000);
  EXPECT_GE(cyclic, 1000);
  EXPECT_GE(acyclic, 50);
}

TEST(BufferSplitWccsDifferential, BufferGraphsMatchTheFormerComponents) {
  int graphs = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 500; ++seed, ++graphs) {
      const TaskGraph base =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      const std::uint64_t salt = seed * 4 + static_cast<std::uint64_t>(shape);
      ASSERT_TRUE(same_wccs(testing::cut_through_buffers(base, salt)))
          << "cut, shape " << shape << ", seed " << seed;
      ASSERT_TRUE(same_wccs(testing::reroute_through_buffers(base, salt)))
          << "rerouted, shape " << shape << ", seed " << seed;
    }
  }
  EXPECT_EQ(graphs, 2000);
}

TEST(BufferSplitWccsDifferential, PaperTopologiesMatchTheFormerComponents) {
  int graphs = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const int scale = static_cast<int>(seed % 4);  // small to paper size
    for (const TaskGraph& graph :
         {make_chain(2 + 2 * scale, seed, testing::volumes_for(seed)),
          make_fft(4 << scale, seed, testing::volumes_for(seed)),
          make_gaussian_elimination(4 + 4 * scale, seed, testing::volumes_for(seed)),
          make_cholesky(2 + 2 * scale, seed, testing::volumes_for(seed))}) {
      ++graphs;
      ASSERT_TRUE(same_wccs(graph)) << "seed " << seed << ", graph " << graphs;
    }
  }
  for (const TaskGraph& graph :
       {testing::figure6_graph(), testing::figure8_graph(), testing::figure9_graph1(),
        testing::figure9_graph2(), testing::buffer_split_example(),
        build_resnet50(ResNetConfig{}), build_transformer_encoder(TransformerConfig{})}) {
    ++graphs;
    ASSERT_TRUE(same_wccs(graph)) << "graph " << graphs;
    ASSERT_EQ(buffer_supernode_dag_is_acyclic(graph), reference_supernode_dag_is_acyclic(graph))
        << "graph " << graphs;
  }
  EXPECT_EQ(graphs, 407);
}

}  // namespace
}  // namespace sts
