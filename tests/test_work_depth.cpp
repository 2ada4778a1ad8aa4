#include "core/work_depth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fuzz_specs.hpp"
#include "graph/algorithms.hpp"
#include "ml/models.hpp"
#include "paper_examples.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

TEST(WorkDepth, ElementwiseChain) {
  // Section 4.2.1: T1 = N*k; T_s_inf bound = L(G) + k.
  TaskGraph g;
  const std::int64_t k = 32;
  NodeId prev = g.add_source(k, "s");
  for (int i = 1; i < 5; ++i) {
    const NodeId next = g.add_compute("c" + std::to_string(i));
    g.add_edge(prev, next, k);
    prev = next;
  }
  g.declare_output(prev, k);
  const WorkDepth wd = analyze_work_depth(g);
  EXPECT_EQ(wd.work, 5 * k);
  EXPECT_EQ(wd.levels, Rational(5));
  EXPECT_EQ(wd.streaming_depth, Rational(5 + k));
}

TEST(WorkDepth, DownsamplerGraphUsesMaxWork) {
  // Section 4.2.2: sources dominate; bound = max W(v) + L(G).
  TaskGraph g;
  const NodeId s = g.add_source(64, "s");
  const NodeId d1 = g.add_compute("d1");
  const NodeId d2 = g.add_compute("d2");
  g.add_edge(s, d1, 64);
  g.add_edge(d1, d2, 16);
  g.declare_output(d2, 4);
  const WorkDepth wd = analyze_work_depth(g);
  EXPECT_EQ(wd.work, 64 + 64 + 16);
  EXPECT_EQ(wd.levels, Rational(3));
  EXPECT_EQ(wd.streaming_depth, Rational(64 + 3));
}

TEST(WorkDepth, UpsamplerRaisesLevelsAndVolume) {
  const TaskGraph g = testing::figure6_graph();
  const WorkDepth wd = analyze_work_depth(g);
  // L(source)=1, L(v)=1+R=5; max volume 32.
  EXPECT_EQ(wd.levels, Rational(5));
  EXPECT_EQ(wd.streaming_depth, Rational(32 + 5));
}

TEST(WorkDepth, BufferedGraphSumsComponentDepths) {
  const TaskGraph g = testing::buffer_split_example();
  const WorkDepth wd = analyze_work_depth(g);
  // WCC0 {s,e1,d}: levels 3, max volume 16 -> 19.
  // WCC1 {B.head,u1,e2}: head level 1, u1 = 1+4 = 5, e2 = 6; max 32 -> 38.
  EXPECT_EQ(wd.streaming_depth, Rational(19 + 38));
}

TEST(WorkDepth, WorkMatchesGraphTotal) {
  const TaskGraph g = make_cholesky(5, /*seed=*/1);
  EXPECT_EQ(analyze_work_depth(g).work, g.total_work());
}

TEST(WorkDepth, DepthLowerBoundsAnyMakespan) {
  // The streaming-depth bound is an infinite-PE quantity: with limited PEs,
  // any schedule's makespan is at least in its vicinity. We check it is
  // positive and no greater than the sequential work for nontrivial graphs.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const TaskGraph g = make_fft(8, seed);
    const WorkDepth wd = analyze_work_depth(g);
    EXPECT_GT(wd.streaming_depth, Rational(0));
    EXPECT_LE(wd.streaming_depth, Rational(wd.work));
  }
}

TEST(WorkDepth, ParallelComponentsTakeDeepest) {
  // Two independent chains (no buffers): H has two unconnected supernodes;
  // the depth is the deeper one, not the sum.
  TaskGraph g;
  const NodeId a = g.add_source(16, "a");
  const NodeId a1 = g.add_compute("a1");
  g.add_edge(a, a1, 16);
  g.declare_output(a1, 16);
  const NodeId b = g.add_source(64, "b");
  const NodeId b1 = g.add_compute("b1");
  g.add_edge(b, b1, 64);
  g.declare_output(b1, 64);
  const WorkDepth wd = analyze_work_depth(g);
  EXPECT_EQ(wd.streaming_depth, Rational(64 + 2));
}

// ------------------------------------ differential vs the former bound
// streaming_depth walks the supernode DAG through the library's one builder
// and Kahn walk (buffer_supernode_dag, SupernodeDag::kahn_order), shared
// with the buffer placement check. This is the function it replaced, with
// its own per-supernode adjacency vectors and stack walk, kept as the
// reference.

Rational reference_streaming_depth(const TaskGraph& graph) {
  const std::size_t n = graph.node_count();
  const BufferSplitWccs wccs = buffer_split_wccs(graph);
  const auto wcc_count = static_cast<std::size_t>(wccs.count);
  std::vector<Rational> split_level(n, Rational(0));
  std::vector<Rational> wcc_level(wcc_count, Rational(0));
  std::vector<std::int64_t> wcc_max_vol(wcc_count, 0);
  for (const NodeId v : topological_order(graph)) {
    const auto idx = static_cast<std::size_t>(v);
    if (graph.kind(v) == NodeKind::kBuffer) {
      for (const EdgeId e : graph.out_edges(v)) {
        const auto wcc = wccs.node_wcc[static_cast<std::size_t>(graph.edge(e).dst)];
        if (wcc >= 0) {
          wcc_max_vol[static_cast<std::size_t>(wcc)] = std::max(
              wcc_max_vol[static_cast<std::size_t>(wcc)], graph.output_volume(v));
        }
      }
      continue;
    }
    Rational best(0);
    for (const EdgeId e : graph.in_edges(v)) {
      const NodeId u = graph.edge(e).src;
      best = std::max(best, graph.kind(u) == NodeKind::kBuffer
                                ? Rational(1)
                                : split_level[static_cast<std::size_t>(u)]);
    }
    if (graph.in_degree(v) == 0) {
      split_level[idx] = Rational(1);
    } else {
      split_level[idx] = best + (graph.kind(v) == NodeKind::kCompute
                                     ? std::max(graph.rate(v), Rational(1))
                                     : Rational(1));
    }
    const auto wcc = wccs.node_wcc[idx];
    if (wcc >= 0) {
      wcc_level[static_cast<std::size_t>(wcc)] =
          std::max(wcc_level[static_cast<std::size_t>(wcc)], split_level[idx]);
      wcc_max_vol[static_cast<std::size_t>(wcc)] =
          std::max(wcc_max_vol[static_cast<std::size_t>(wcc)], graph.output_volume(v));
    }
  }
  std::vector<Rational> wcc_weight(wcc_count, Rational(0));
  for (std::size_t c = 0; c < wcc_count; ++c) {
    wcc_weight[c] = wcc_level[c] + Rational(wcc_max_vol[c]);
  }
  std::vector<std::vector<std::int32_t>> adj(wcc_count);
  std::vector<std::size_t> deg(wcc_count, 0);
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (graph.kind(v) != NodeKind::kBuffer) continue;
    for (const EdgeId in : graph.in_edges(v)) {
      const auto tail = wccs.node_wcc[static_cast<std::size_t>(graph.edge(in).src)];
      if (tail < 0) continue;
      for (const EdgeId out : graph.out_edges(v)) {
        const auto head = wccs.node_wcc[static_cast<std::size_t>(graph.edge(out).dst)];
        if (head < 0 || head == tail) continue;
        adj[static_cast<std::size_t>(tail)].push_back(head);
        ++deg[static_cast<std::size_t>(head)];
      }
    }
  }
  std::vector<Rational> path(wcc_weight);
  std::vector<std::int32_t> stack;
  for (std::size_t c = 0; c < wcc_count; ++c) {
    if (deg[c] == 0) stack.push_back(static_cast<std::int32_t>(c));
  }
  Rational deepest(0);
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    deepest = std::max(deepest, path[static_cast<std::size_t>(u)]);
    for (const auto w : adj[static_cast<std::size_t>(u)]) {
      path[static_cast<std::size_t>(w)] =
          std::max(path[static_cast<std::size_t>(w)],
                   path[static_cast<std::size_t>(u)] + wcc_weight[static_cast<std::size_t>(w)]);
      if (--deg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
    }
  }
  return deepest;
}

bool has_buffer(const TaskGraph& graph) {
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (graph.kind(v) == NodeKind::kBuffer) return true;
  }
  return false;
}

// Every overload against the reference: the standalone one, the one
// MetricsPass calls with the run's wave order and node levels (which reads
// a buffer-free graph's bound off the levels and the weak components), and
// the buffer-split analysis over that order.
::testing::AssertionResult every_overload_matches(const TaskGraph& graph) {
  const Rational expected = reference_streaming_depth(graph);
  const std::vector<NodeId> order = topological_waves(graph).order;
  const std::vector<Rational> levels = node_levels(graph, order);
  const Rational standalone = streaming_depth(graph);
  const Rational from_levels = streaming_depth(graph, order, levels);
  const Rational split = streaming_depth(graph, order);
  if (standalone == expected && from_levels == expected && split == expected) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "reference " << expected.to_string() << ", standalone " << standalone.to_string()
         << ", from levels " << from_levels.to_string() << ", buffer-split "
         << split.to_string();
}

TEST(StreamingDepthDifferential, CutGraphsMatchTheFormerBound) {
  int graphs = 0;
  int multi_supernode = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 500; ++seed, ++graphs) {
      const TaskGraph base =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      const TaskGraph cut =
          testing::cut_through_buffers(base, seed * 4 + static_cast<std::uint64_t>(shape));
      multi_supernode += buffer_split_wccs(cut).count > 1 ? 1 : 0;
      ASSERT_TRUE(every_overload_matches(cut)) << "shape " << shape << ", seed " << seed;
    }
  }
  EXPECT_EQ(graphs, 2000);
  EXPECT_EQ(multi_supernode, graphs);
}

TEST(StreamingDepthDifferential, PaperTopologiesMatchTheFormerBound) {
  int graphs = 0;
  int buffered = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const int scale = static_cast<int>(seed % 4);  // small to paper size
    for (const TaskGraph& graph :
         {make_chain(2 + 2 * scale, seed, testing::volumes_for(seed)),
          make_fft(4 << scale, seed, testing::volumes_for(seed)),
          make_gaussian_elimination(4 + 4 * scale, seed, testing::volumes_for(seed)),
          make_cholesky(2 + 2 * scale, seed, testing::volumes_for(seed))}) {
      ++graphs;
      buffered += has_buffer(graph) ? 1 : 0;
      ASSERT_TRUE(every_overload_matches(graph)) << "seed " << seed << ", graph " << graphs;
    }
  }
  for (const TaskGraph& graph :
       {testing::figure6_graph(), testing::figure8_graph(), testing::figure9_graph1(),
        testing::figure9_graph2(), testing::buffer_split_example(),
        build_resnet50(ResNetConfig{}), build_transformer_encoder(TransformerConfig{})}) {
    ++graphs;
    buffered += has_buffer(graph) ? 1 : 0;
    ASSERT_TRUE(every_overload_matches(graph)) << "graph " << graphs;
  }
  EXPECT_EQ(graphs, 407);
  // Both kinds: the generated topologies have no buffer node, the paper's
  // buffer examples and ResNet-50 do.
  EXPECT_GE(buffered, 3);
  EXPECT_LE(buffered, graphs - 400);
}

TEST(StreamingDepthDifferential, MultiComponentGraphsMatchTheFormerBound) {
  // Several weak components per graph, with and without buffers: the
  // buffer-free bound is a maximum over components.
  int graphs = 0;
  int buffered = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed, ++graphs) {
    TaskGraph graph;
    for (int part = 0; part < 3; ++part) {
      const int shape = static_cast<int>((seed + static_cast<std::uint64_t>(part)) % 4);
      const std::uint64_t part_seed = seed * 8 + static_cast<std::uint64_t>(part);
      TaskGraph component = make_random_layered(testing::fuzz_spec_for(shape), part_seed,
                                                testing::volumes_for(part_seed));
      if (seed % 3 == 0 && part == 1) {
        component = testing::cut_through_buffers(component, part_seed);
      }
      testing::append_component(graph, component, "p" + std::to_string(part) + "_");
    }
    ASSERT_GE(graph.weak_components().count, 3) << "seed " << seed;
    buffered += has_buffer(graph) ? 1 : 0;
    ASSERT_TRUE(every_overload_matches(graph)) << "seed " << seed;
  }
  EXPECT_GT(buffered, 0);
  EXPECT_LT(buffered, graphs);
}

}  // namespace
}  // namespace sts
