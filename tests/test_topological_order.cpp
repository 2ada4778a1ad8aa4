// A streaming pipeline run computes one topological order and the node levels
// along it (ScheduleContext::topology), and every pass reads that order. This
// is sound only because none of node_levels, partition_is_valid,
// schedule_streaming and streaming_depth depends on which topological order
// it walks. This file runs each of them over the min-id order, the wave order
// the pipeline uses, a max-id order and seeded random Kahn orders, and
// requires identical results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "core/streaming_schedule.hpp"
#include "core/work_depth.hpp"
#include "fuzz_specs.hpp"
#include "graph/algorithms.hpp"
#include "ml/models.hpp"
#include "paper_examples.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

/// Kahn's algorithm that pops the ready node at the index `pick` chooses.
template <typename Pick>
std::vector<NodeId> kahn_order(const TaskGraph& graph, Pick pick) {
  std::vector<std::size_t> pending(graph.node_count());
  std::vector<NodeId> ready;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    pending[static_cast<std::size_t>(v)] = graph.in_degree(v);
    if (pending[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  std::vector<NodeId> order;
  while (!ready.empty()) {
    const std::size_t at = pick(ready);
    const NodeId u = ready[at];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(at));
    order.push_back(u);
    for (const EdgeId e : graph.out_edges(u)) {
      const NodeId w = graph.edge(e).dst;
      if (--pending[static_cast<std::size_t>(w)] == 0) ready.push_back(w);
    }
  }
  return order;
}

std::vector<std::vector<NodeId>> orders_of(const TaskGraph& graph) {
  std::vector<std::vector<NodeId>> orders;
  orders.push_back(topological_order(graph));  // min-id first
  orders.push_back(topological_waves(graph).order);
  orders.push_back(kahn_order(graph, [](const std::vector<NodeId>& ready) {
    return static_cast<std::size_t>(std::max_element(ready.begin(), ready.end()) - ready.begin());
  }));
  for (const std::uint64_t seed : {1, 2, 3}) {
    Prng rng(seed);
    orders.push_back(kahn_order(graph, [&rng](const std::vector<NodeId>& ready) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ready.size()) - 1));
    }));
  }
  return orders;
}

bool is_topological(const TaskGraph& graph, const std::vector<NodeId>& order) {
  if (order.size() != graph.node_count()) return false;
  std::vector<std::size_t> position(graph.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = i;
  }
  return std::all_of(graph.edges().begin(), graph.edges().end(), [&](const Edge& e) {
    return position[static_cast<std::size_t>(e.src)] < position[static_cast<std::size_t>(e.dst)];
  });
}

::testing::AssertionResult same_schedule(const StreamingSchedule& a, const StreamingSchedule& b) {
  if (a.makespan != b.makespan || a.block_start != b.block_start || a.block_end != b.block_end ||
      a.partition.blocks != b.partition.blocks || a.timing.size() != b.timing.size()) {
    return ::testing::AssertionFailure() << "makespan or blocks differ";
  }
  for (std::size_t v = 0; v < a.timing.size(); ++v) {
    const TaskTiming& x = a.timing[v];
    const TaskTiming& y = b.timing[v];
    if (x.start != y.start || x.first_out != y.first_out || x.last_out != y.last_out ||
        x.s_in != y.s_in || x.s_out != y.s_out || x.pe != y.pe || x.block != y.block) {
      return ::testing::AssertionFailure() << "timing of node " << v << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A copy of `partition` with the first members of its first and last blocks
/// swapped: structurally sound, so partition_is_valid's verdict rests on the
/// dependency relay, the one part that walks an order.
SpatialPartition swap_first_and_last(SpatialPartition partition) {
  if (partition.blocks.size() < 2) return partition;
  const NodeId x = partition.blocks.front().front();
  const NodeId y = partition.blocks.back().front();
  std::swap(partition.block_of[static_cast<std::size_t>(x)],
            partition.block_of[static_cast<std::size_t>(y)]);
  partition.blocks.front().front() = y;
  partition.blocks.back().front() = x;
  return partition;
}

struct Tally {
  int graphs = 0;
  int rejected = 0;  ///< swapped partitions every order rejected
};

void expect_order_free(const TaskGraph& graph, const std::string& name, Tally& tally) {
  ++tally.graphs;
  const std::vector<std::vector<NodeId>> orders = orders_of(graph);
  for (const std::vector<NodeId>& order : orders) {
    ASSERT_TRUE(is_topological(graph, order)) << name;
  }
  const std::vector<NodeId>& first = orders.front();
  const std::vector<Rational> levels = node_levels(graph, first);
  EXPECT_EQ(levels, node_levels(graph)) << name;
  const Rational depth = streaming_depth(graph, first);
  for (const std::int64_t pes : {4, 16}) {
    for (const bool by_work : {false, true}) {
      const SpatialPartition partition =
          by_work ? partition_by_work(graph, pes, levels)
                  : partition_spatial_blocks(graph, pes, PartitionVariant::kRLX, levels);
      const SpatialPartition swapped = swap_first_and_last(partition);
      const StreamingSchedule schedule = schedule_streaming(graph, partition, first);
      const bool swapped_valid = partition_is_valid(graph, swapped, pes, first);
      tally.rejected += swapped_valid ? 0 : 1;
      for (std::size_t o = 1; o < orders.size(); ++o) {
        const std::vector<NodeId>& order = orders[o];
        const std::string where = name + ", order " + std::to_string(o) + ", P = " +
                                  std::to_string(pes) + (by_work ? ", by work" : ", SB-RLX");
        ASSERT_TRUE(partition_is_valid(graph, partition, pes, order)) << where;
        ASSERT_EQ(partition_is_valid(graph, swapped, pes, order), swapped_valid) << where;
        ASSERT_TRUE(same_schedule(schedule_streaming(graph, partition, order), schedule))
            << where;
      }
    }
  }
  for (std::size_t o = 1; o < orders.size(); ++o) {
    ASSERT_EQ(node_levels(graph, orders[o]), levels) << name << ", order " << o;
    ASSERT_EQ(streaming_depth(graph, orders[o]), depth) << name << ", order " << o;
  }
}

TEST(TopologicalOrderIndependence, FuzzShapesAndBufferCuts) {
  Tally tally;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const TaskGraph base =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      const std::string name = "shape " + std::to_string(shape) + ", seed " + std::to_string(seed);
      expect_order_free(base, name, tally);
      const TaskGraph cut = testing::cut_through_buffers(base, seed * 4 + shape);
      ASSERT_TRUE(cut.validate().empty()) << name;
      expect_order_free(cut, "cut " + name, tally);
    }
  }
  EXPECT_EQ(tally.graphs, 800);
  EXPECT_GE(tally.rejected, tally.graphs);  // the swapped partitions test something
}

TEST(TopologicalOrderIndependence, PaperTopologiesAndFigures) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const int scale = static_cast<int>(seed % 4);
    expect_order_free(make_chain(2 + 2 * scale, seed, testing::volumes_for(seed)), "chain", tally);
    expect_order_free(make_fft(4 << scale, seed, testing::volumes_for(seed)), "fft", tally);
    expect_order_free(make_gaussian_elimination(4 + 4 * scale, seed, testing::volumes_for(seed)),
                      "gaussian", tally);
    expect_order_free(make_cholesky(2 + 2 * scale, seed, testing::volumes_for(seed)), "cholesky",
                      tally);
  }
  expect_order_free(testing::figure6_graph(), "figure 6", tally);
  expect_order_free(testing::figure8_graph(), "figure 8", tally);
  expect_order_free(testing::figure9_graph1(), "figure 9 (1)", tally);
  expect_order_free(testing::figure9_graph2(), "figure 9 (2)", tally);
  expect_order_free(testing::buffer_split_example(), "buffer split", tally);
  EXPECT_EQ(tally.graphs, 85);
  EXPECT_GE(tally.rejected, 40);
}

TEST(TopologicalOrderIndependence, Resnet50AndEncoder) {
  Tally tally;
  expect_order_free(build_resnet50(ResNetConfig{}), "resnet50", tally);
  expect_order_free(build_transformer_encoder(TransformerConfig{}), "encoder", tally);
  EXPECT_EQ(tally.graphs, 2);
}

}  // namespace
}  // namespace sts
