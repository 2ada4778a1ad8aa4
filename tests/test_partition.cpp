#include "core/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "fuzz_specs.hpp"
#include "graph/algorithms.hpp"
#include "ml/models.hpp"
#include "paper_examples.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

TEST(Partition, ChainStaysTogetherWithinCapacity) {
  // Element-wise chains produce equal volumes: SB-LTS keeps them streaming.
  TaskGraph g;
  NodeId prev = g.add_source(16, "s");
  for (int i = 1; i < 8; ++i) {
    const NodeId next = g.add_compute("c" + std::to_string(i));
    g.add_edge(prev, next, 16);
    prev = next;
  }
  g.declare_output(prev, 16);
  const SpatialPartition p = partition_spatial_blocks(g, 8, PartitionVariant::kLTS);
  EXPECT_EQ(p.block_count(), 1u);
  EXPECT_EQ(p.blocks[0].size(), 8u);
}

TEST(Partition, CapacityCutsBlocks) {
  TaskGraph g;
  NodeId prev = g.add_source(16, "s");
  for (int i = 1; i < 8; ++i) {
    const NodeId next = g.add_compute("c" + std::to_string(i));
    g.add_edge(prev, next, 16);
    prev = next;
  }
  g.declare_output(prev, 16);
  const SpatialPartition p = partition_spatial_blocks(g, 3, PartitionVariant::kRLX);
  EXPECT_EQ(p.block_count(), 3u);  // ceil(8/3)
  EXPECT_EQ(p.blocks[0].size(), 3u);
  EXPECT_EQ(p.blocks[1].size(), 3u);
  EXPECT_EQ(p.blocks[2].size(), 2u);
  EXPECT_TRUE(partition_is_valid(g, p, 3));
}

TEST(Partition, LtsRejectsFasterProducerThanSource) {
  // source (4) -> upsampler (16): the upsampler would slow the source, so
  // SB-LTS puts it into its own block; SB-RLX keeps them together.
  TaskGraph g;
  const NodeId s = g.add_source(4, "s");
  const NodeId up = g.add_compute("up");
  g.add_edge(s, up, 4);
  g.declare_output(up, 16);
  const SpatialPartition lts = partition_spatial_blocks(g, 2, PartitionVariant::kLTS);
  EXPECT_EQ(lts.block_count(), 2u);
  const SpatialPartition rlx = partition_spatial_blocks(g, 2, PartitionVariant::kRLX);
  EXPECT_EQ(rlx.block_count(), 1u);
  EXPECT_TRUE(partition_is_valid(g, lts, 2));
  EXPECT_TRUE(partition_is_valid(g, rlx, 2));
}

TEST(Partition, DownsamplersAlwaysJoin) {
  TaskGraph g;
  const NodeId s = g.add_source(64, "s");
  const NodeId d = g.add_compute("d");
  g.add_edge(s, d, 64);
  g.declare_output(d, 4);
  const SpatialPartition p = partition_spatial_blocks(g, 2, PartitionVariant::kLTS);
  EXPECT_EQ(p.block_count(), 1u);
}

TEST(Partition, RlxFillsBlocksToCapacity) {
  // Paper Section 5.2: with SB-RLX all blocks except the last hold P tasks.
  const TaskGraph g = make_fft(16, /*seed=*/7);
  const std::int64_t pes = 16;
  const SpatialPartition p = partition_spatial_blocks(g, pes, PartitionVariant::kRLX);
  for (std::size_t b = 0; b + 1 < p.block_count(); ++b) {
    EXPECT_EQ(p.blocks[b].size(), static_cast<std::size_t>(pes)) << "block " << b;
  }
  EXPECT_TRUE(partition_is_valid(g, p, pes));
}

TEST(Partition, LtsNeverExceedsRlxBlockCount) {
  // SB-RLX partitions into at most as many blocks as SB-LTS.
  for (const std::uint64_t seed : {1u, 4u, 9u, 16u}) {
    const TaskGraph g = make_gaussian_elimination(8, seed);
    const auto lts = partition_spatial_blocks(g, 8, PartitionVariant::kLTS);
    const auto rlx = partition_spatial_blocks(g, 8, PartitionVariant::kRLX);
    EXPECT_LE(rlx.block_count(), lts.block_count()) << "seed " << seed;
  }
}

TEST(Partition, SingleBlockWhenPesCoverGraph) {
  const TaskGraph g = make_cholesky(4, /*seed=*/3);
  const auto tasks = static_cast<std::int64_t>(g.node_count());
  const SpatialPartition p = partition_spatial_blocks(g, tasks, PartitionVariant::kRLX);
  EXPECT_EQ(p.block_count(), 1u);
}

TEST(Partition, BufferNodesCarryNoBlockAndNoCapacity) {
  const TaskGraph g = testing::buffer_split_example();
  const SpatialPartition p = partition_spatial_blocks(g, 5, PartitionVariant::kRLX);
  EXPECT_EQ(p.block_of[3], -1);  // the buffer
  std::size_t placed = 0;
  for (const auto& block : p.blocks) placed += block.size();
  EXPECT_EQ(placed, 5u);  // 5 PE nodes
  EXPECT_TRUE(partition_is_valid(g, p, 5));
}

TEST(Partition, DependenciesFlowForward) {
  for (const std::uint64_t seed : {2u, 5u, 11u}) {
    const TaskGraph g = make_fft(16, seed);
    for (const auto variant : {PartitionVariant::kLTS, PartitionVariant::kRLX}) {
      const SpatialPartition p = partition_spatial_blocks(g, 8, variant);
      EXPECT_TRUE(partition_is_valid(g, p, 8))
          << "seed " << seed << " variant " << to_string(variant);
    }
  }
}

TEST(Partition, ThrowsOnBadPeCount) {
  const TaskGraph g = testing::figure8_graph();
  EXPECT_THROW(partition_spatial_blocks(g, 0, PartitionVariant::kLTS), std::invalid_argument);
}

TEST(PartitionByWork, PicksHeaviestReadyFirst) {
  // Algorithm 2 (Appendix A.2): ready node with the highest work first.
  TaskGraph g;
  const NodeId s = g.add_source(64, "s");
  const NodeId d1 = g.add_compute("d1");  // work 64
  const NodeId d2 = g.add_compute("d2");  // work 16
  g.add_edge(s, d1, 64);
  g.add_edge(d1, d2, 16);
  g.declare_output(d2, 4);
  const SpatialPartition p = partition_by_work(g, 2);
  ASSERT_EQ(p.block_count(), 2u);
  EXPECT_EQ(p.blocks[0], (std::vector<NodeId>{s, d1}));
  EXPECT_EQ(p.blocks[1], (std::vector<NodeId>{d2}));
}

TEST(PartitionByWork, NonIncreasingBlockMaxima) {
  // The proof of Theorem A.2 relies on work being non-increasing along the
  // pick order for elwise+downsampler graphs.
  TaskGraph g;
  const NodeId s = g.add_source(64, "s");
  NodeId left = s;
  NodeId right = s;
  for (int i = 0; i < 3; ++i) {
    const NodeId l = g.add_compute("l" + std::to_string(i));
    g.add_edge(left, l, g.output_volume(left));
    g.declare_output(l, g.input_volume(l) / 2);
    left = l;
    const NodeId r = g.add_compute("r" + std::to_string(i));
    g.add_edge(right, r, g.output_volume(right));
    g.declare_output(r, g.input_volume(r));
    right = r;
  }
  const SpatialPartition p = partition_by_work(g, 3);
  std::int64_t prev_max = std::numeric_limits<std::int64_t>::max();
  for (const auto& block : p.blocks) {
    std::int64_t block_max = 0;
    for (const NodeId v : block) block_max = std::max(block_max, g.work(v));
    EXPECT_LE(block_max, prev_max);
    prev_max = block_max;
  }
  EXPECT_TRUE(partition_is_valid(g, p, 3));
}

TEST(PartitionIsValid, DetectsCorruptAssignments) {
  const TaskGraph g = testing::figure8_graph();
  SpatialPartition p = partition_spatial_blocks(g, 8, PartitionVariant::kRLX);
  ASSERT_TRUE(partition_is_valid(g, p, 8));
  SpatialPartition broken = p;
  broken.block_of[2] = 7;  // points outside any block
  EXPECT_FALSE(partition_is_valid(g, broken, 8));
  SpatialPartition backwards = p;
  if (backwards.blocks.size() == 1) {
    // Fabricate a backwards dependency: split node 0 into a later block.
    backwards.blocks.push_back({0});
    backwards.blocks[0].erase(
        std::find(backwards.blocks[0].begin(), backwards.blocks[0].end(), 0));
    backwards.block_of[0] = 1;
    EXPECT_FALSE(partition_is_valid(g, backwards, 8));
  }
}

TEST(PartitionIsValid, BlockListsMustMatchBlockOfExactly) {
  // Per-block member counts agree with block_of in both partitions below, so
  // only a check of the listed nodes themselves rejects them.
  TaskGraph g;
  const NodeId s = g.add_source(4, "s");
  const NodeId c = g.add_compute("c");
  g.add_edge(s, c, 4);
  g.declare_output(c, 4);
  SpatialPartition good;
  good.blocks = {{s}, {c}};
  good.block_of = {0, 1};
  ASSERT_TRUE(partition_is_valid(g, good, 2));

  SpatialPartition twice;  // s listed twice, c nowhere
  twice.blocks = {{s, s}};
  twice.block_of = {0, 0};
  EXPECT_FALSE(partition_is_valid(g, twice, 2));

  SpatialPartition swapped;  // each node listed in the other's block
  swapped.blocks = {{c}, {s}};
  swapped.block_of = {0, 1};
  EXPECT_FALSE(partition_is_valid(g, swapped, 2));

  SpatialPartition stranger;  // a node id outside the graph
  stranger.blocks = {{s}, {c, 7}};
  stranger.block_of = {0, 1};
  EXPECT_FALSE(partition_is_valid(g, stranger, 2));
}

// ------------------------------------------ differential vs a full scan

/// The three partitioners a differential case compares.
enum class Partitioner { kLTS, kRLX, kWork };

const char* to_string(Partitioner which) {
  switch (which) {
    case Partitioner::kLTS: return "SB-LTS";
    case Partitioner::kRLX: return "SB-RLX";
    case Partitioner::kWork: return "by-work";
  }
  return "?";
}

/// Alg. 1 (SB-LTS, SB-RLX) and Alg. 2 as a plain full scan: every pick
/// rescans the whole ready set and recomputes each candidate's source-volume
/// bound over its in-edges, O(N x ready width x in-degree). It is the
/// library's serial loop from before its ready sets became heaps, kept here
/// as their oracle.
SpatialPartition full_scan_partition(const TaskGraph& graph, std::int64_t num_pes,
                                     Partitioner which, const std::vector<Rational>& level,
                                     const CanonicalPartitionIndex& index) {
  constexpr std::int64_t kUnbounded = std::numeric_limits<std::int64_t>::max();
  const std::size_t n = graph.node_count();
  SpatialPartition out;
  out.block_of.assign(n, -1);
  std::vector<std::size_t> pending(n);
  std::vector<std::int64_t> chain(n, kUnbounded);
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    pending[static_cast<std::size_t>(v)] = graph.in_degree(v);
  }
  std::vector<NodeId> ready;
  std::int32_t open = -1;

  std::function<void(NodeId)> make_ready;
  const auto release = [&](NodeId v) {
    for (const EdgeId e : graph.out_edges(v)) {
      const NodeId w = graph.edge(e).dst;
      if (--pending[static_cast<std::size_t>(w)] == 0) make_ready(w);
    }
  };
  make_ready = [&](NodeId v) {
    if (graph.kind(v) == NodeKind::kBuffer) {
      release(v);  // buffers are absorbed, never placed
    } else {
      ready.push_back(v);
    }
  };
  const auto bound_of = [&](NodeId v) {
    std::int64_t bound = kUnbounded;
    for (const EdgeId e : graph.in_edges(v)) {
      const NodeId u = graph.edge(e).src;
      if (graph.kind(u) == NodeKind::kBuffer) continue;
      if (open >= 0 && out.block_of[static_cast<std::size_t>(u)] == open) {
        bound = std::min(bound, chain[static_cast<std::size_t>(u)]);
      }
    }
    return bound;
  };
  const auto lv = [&](NodeId v) { return level[static_cast<std::size_t>(v)]; };
  const auto rk = [&](NodeId v) { return index.rank[static_cast<std::size_t>(v)]; };
  const auto eligible_beats = [&](NodeId v, NodeId b) {
    if (b == kInvalidNode) return true;
    if (lv(v) != lv(b)) return lv(v) < lv(b);
    if (graph.output_volume(v) != graph.output_volume(b)) {
      return graph.output_volume(v) < graph.output_volume(b);
    }
    return rk(v) < rk(b);
  };
  const auto relaxed_beats = [&](NodeId v, NodeId b) {
    if (b == kInvalidNode) return true;
    if (graph.output_volume(v) != graph.output_volume(b)) {
      return graph.output_volume(v) < graph.output_volume(b);
    }
    if (lv(v) != lv(b)) return lv(v) < lv(b);
    return rk(v) < rk(b);
  };
  const auto heavier_beats = [&](NodeId v, NodeId b) {
    if (b == kInvalidNode) return true;
    if (graph.work(v) != graph.work(b)) return graph.work(v) > graph.work(b);
    if (lv(v) != lv(b)) return lv(v) < lv(b);
    return rk(v) < rk(b);
  };

  for (std::int32_t c = 0; c < index.count; ++c) {
    std::size_t left = 0;
    for (const NodeId v : index.nodes(c)) {
      if (graph.occupies_pe(v)) ++left;
      if (pending[static_cast<std::size_t>(v)] == 0) make_ready(v);
    }
    while (left > 0) {
      if (ready.empty()) throw std::logic_error("full scan: no ready node");
      NodeId best = kInvalidNode;
      NodeId relaxed = kInvalidNode;
      for (const NodeId v : ready) {
        if (which == Partitioner::kWork) {
          if (heavier_beats(v, best)) best = v;
          continue;
        }
        const std::int64_t bound = bound_of(v);
        if (bound == kUnbounded || graph.output_volume(v) <= bound) {
          if (eligible_beats(v, best)) best = v;
        } else if (which == Partitioner::kRLX && relaxed_beats(v, relaxed)) {
          relaxed = v;
        }
      }
      if (best == kInvalidNode) best = relaxed;
      if (best == kInvalidNode) {
        open = -1;  // SB-LTS: nothing safe to add, seal the block
        continue;
      }
      if (open < 0) {
        open = static_cast<std::int32_t>(out.blocks.size());
        out.blocks.emplace_back();
      }
      const std::int64_t bound = bound_of(best);
      chain[static_cast<std::size_t>(best)] =
          bound == kUnbounded ? graph.output_volume(best) : bound;
      out.block_of[static_cast<std::size_t>(best)] = open;
      out.blocks[static_cast<std::size_t>(open)].push_back(best);
      *std::find(ready.begin(), ready.end(), best) = ready.back();
      ready.pop_back();
      --left;
      release(best);
      if (static_cast<std::int64_t>(out.blocks[static_cast<std::size_t>(open)].size()) >=
          num_pes) {
        open = -1;
      }
    }
    open = -1;  // blocks never span components
  }
  return out;
}

constexpr std::int64_t kDifferentialPes[] = {1, 2, 3, 5, 8, 16, 64};

/// Partitions `graph` at every P of kDifferentialPes with all three
/// partitioners, and requires the library's blocks and block_of to equal the
/// full scan's, and every block to lie inside one canonical_partition_index
/// component (fragment assembly rests on that; partition_is_valid does not
/// check it). At P = 1 the library canonicalizes on its own; otherwise it
/// gets the shared index, as the pipeline's fragment path passes one.
::testing::AssertionResult matches_full_scan(const TaskGraph& graph) {
  const std::vector<Rational> level = node_levels(graph);
  const CanonicalPartitionIndex index = canonical_partition_index(graph, level);
  Workspace ws;
  for (const std::int64_t pes : kDifferentialPes) {
    const CanonicalPartitionIndex* given = pes == 1 ? nullptr : &index;
    for (const Partitioner which : {Partitioner::kLTS, Partitioner::kRLX, Partitioner::kWork}) {
      ws.arena.reset();
      const SpatialPartition got =
          which == Partitioner::kWork
              ? partition_by_work(graph, pes, &ws, given)
              : partition_spatial_blocks(graph, pes,
                                         which == Partitioner::kLTS ? PartitionVariant::kLTS
                                                                    : PartitionVariant::kRLX,
                                         &ws, given);
      const SpatialPartition want = full_scan_partition(graph, pes, which, level, index);
      if (got.blocks != want.blocks || got.block_of != want.block_of) {
        std::size_t b = 0;
        while (b < got.blocks.size() && b < want.blocks.size() && got.blocks[b] == want.blocks[b]) {
          ++b;
        }
        return ::testing::AssertionFailure()
               << to_string(which) << " at P = " << pes << ": block " << b << " differs ("
               << got.block_count() << " blocks vs the full scan's " << want.block_count() << ")";
      }
      const auto component = [&](NodeId v) {
        return index.component[static_cast<std::size_t>(v)];
      };
      for (std::size_t b = 0; b < got.blocks.size(); ++b) {
        for (const NodeId v : got.blocks[b]) {
          if (component(v) != component(got.blocks[b].front())) {
            return ::testing::AssertionFailure()
                   << to_string(which) << " at P = " << pes << ": block " << b
                   << " spans components " << component(got.blocks[b].front()) << " and "
                   << component(v);
          }
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PartitionDifferential, FuzzShapesMatchFullScan) {
  int graphs = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 1000; ++seed, ++graphs) {
      const TaskGraph graph =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      ASSERT_TRUE(matches_full_scan(graph)) << "shape " << shape << ", seed " << seed;
    }
  }
  EXPECT_EQ(graphs, 4000);
}

TEST(PartitionDifferential, TwoComponentGraphsMatchFullScan) {
  int graphs = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed, ++graphs) {
    const int shape = static_cast<int>(seed % 4);
    TaskGraph graph;
    testing::append_component(
        graph,
        make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed)),
        "a");
    testing::append_component(
        graph,
        make_random_layered(testing::fuzz_spec_for((shape + 1) % 4), seed + 7919,
                            testing::volumes_for(seed / 2)),
        "b");
    ASSERT_TRUE(matches_full_scan(graph)) << "seed " << seed;
  }
  EXPECT_EQ(graphs, 2000);
}

TEST(PartitionDifferential, BufferGraphsMatchFullScan) {
  // Both buffer generators: reroute_through_buffers's graphs mostly fail
  // validate(), cut_through_buffers's all pass it, so the partitions compared
  // here include buffer graphs a scheduler accepts.
  int graphs = 0;
  int with_buffer = 0;
  int cut_with_buffer = 0;
  int cut_valid = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 750; ++seed, ++graphs) {
      const TaskGraph base =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      const std::uint64_t salt = seed * 4 + static_cast<std::uint64_t>(shape);
      const TaskGraph rerouted = testing::reroute_through_buffers(base, salt);
      const TaskGraph cut = testing::cut_through_buffers(base, salt);
      with_buffer += stats_of(rerouted).buffer_nodes > 0 ? 1 : 0;
      cut_with_buffer += stats_of(cut).buffer_nodes > 0 ? 1 : 0;
      cut_valid += cut.validate().empty() ? 1 : 0;
      ASSERT_TRUE(matches_full_scan(rerouted)) << "shape " << shape << ", seed " << seed;
      ASSERT_TRUE(matches_full_scan(cut)) << "cut, shape " << shape << ", seed " << seed;
    }
  }
  EXPECT_EQ(graphs, 3000);
  EXPECT_GE(with_buffer, 2000);
  EXPECT_EQ(cut_valid, graphs);
  EXPECT_EQ(cut_with_buffer, graphs);
}

TEST(PartitionDifferential, PaperTopologiesMatchFullScan) {
  int graphs = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    const int scale = static_cast<int>(seed % 4);  // small to paper size
    for (const TaskGraph& graph :
         {make_chain(2 + 2 * scale, seed, testing::volumes_for(seed)),
          make_fft(4 << scale, seed, testing::volumes_for(seed)),
          make_gaussian_elimination(4 + 4 * scale, seed, testing::volumes_for(seed)),
          make_cholesky(2 + 2 * scale, seed, testing::volumes_for(seed))}) {
      ++graphs;
      ASSERT_TRUE(matches_full_scan(graph)) << "seed " << seed << ", graph " << graphs;
    }
  }
  for (const TaskGraph& graph :
       {testing::figure6_graph(), testing::figure8_graph(), testing::figure9_graph1(),
        testing::figure9_graph2(), testing::buffer_split_example(), make_fft(64, 1)}) {
    ++graphs;
    ASSERT_TRUE(matches_full_scan(graph)) << "figure graph " << graphs;
  }
  EXPECT_EQ(graphs, 1006);
}

TEST(PartitionDifferential, Resnet50MatchesFullScan) {
  ASSERT_TRUE(matches_full_scan(build_resnet50(ResNetConfig{})));
}

TEST(PartitionDifferential, EncoderMatchesFullScan) {
  ASSERT_TRUE(matches_full_scan(build_transformer_encoder(TransformerConfig{})));
}

}  // namespace
}  // namespace sts
