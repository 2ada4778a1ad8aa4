#include "core/streaming_intervals.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "core/streaming_schedule.hpp"
#include "fuzz_specs.hpp"
#include "paper_examples.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

TEST(StreamingIntervals, Figure6UpsamplerThrottlesSource) {
  const TaskGraph g = testing::figure6_graph();
  const StreamContext ctx = streaming_intervals(g);
  EXPECT_EQ(ctx.s_out[0], Rational(4));  // source throttled by the upsampler
  EXPECT_EQ(ctx.s_out[1], Rational(1));
  EXPECT_EQ(ctx.s_in[1], Rational(4));
}

TEST(StreamingIntervals, Figure8Intervals) {
  const TaskGraph g = testing::figure8_graph();
  const StreamContext ctx = streaming_intervals(g);
  // max O in the single WCC is 32 (the upsampler's output).
  EXPECT_EQ(ctx.s_out[0], Rational(2));
  EXPECT_EQ(ctx.s_out[1], Rational(8));
  EXPECT_EQ(ctx.s_out[2], Rational(8));
  EXPECT_EQ(ctx.s_out[3], Rational(1));
  EXPECT_EQ(ctx.s_out[4], Rational(4));
}

TEST(StreamingIntervals, BufferSplitsComponents) {
  const TaskGraph g = testing::buffer_split_example();
  const StreamContext ctx = streaming_intervals(g);
  // WCC0 = {s, e1, d, B.tail}: max volume 16.
  EXPECT_EQ(ctx.s_out[0], Rational(1));
  EXPECT_EQ(ctx.s_out[1], Rational(1));
  EXPECT_EQ(ctx.s_out[2], Rational(4));  // d outputs 4 of max 16
  // WCC1 = {B.head, u1, e2}: max volume 32.
  EXPECT_EQ(ctx.s_out[3], Rational(4));  // buffer head emits 8 of max 32
  EXPECT_EQ(ctx.s_out[4], Rational(1));
  EXPECT_EQ(ctx.s_out[5], Rational(1));
  // The two components are independent.
  EXPECT_NE(ctx.node_wcc[2], ctx.node_wcc[4]);
}

TEST(StreamingIntervals, AllIntervalsAtLeastOne) {
  const TaskGraph g = make_fft(16, /*seed=*/3);
  const StreamContext ctx = streaming_intervals(g);
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.output_volume(v) > 0) {
      EXPECT_GE(ctx.s_out[static_cast<std::size_t>(v)], Rational(1)) << "node " << v;
    }
  }
}

TEST(StreamingIntervals, Lemma43ProductInvariant) {
  // Lemma 4.3: S_o(v) * O(v) is constant within a WCC.
  const TaskGraph g = make_gaussian_elimination(8, /*seed=*/11);
  const StreamContext ctx = streaming_intervals(g);
  Rational product(0);
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (g.output_volume(v) == 0) continue;
    const Rational p = ctx.s_out[idx] * Rational(g.output_volume(v));
    if (product == Rational(0)) {
      product = p;
    } else {
      EXPECT_EQ(p, product) << "node " << v;
    }
  }
}

TEST(StreamingIntervals, MaxVolumeNodeRunsAtRateOne) {
  // Theorem 4.1 proof: the max-volume node of a WCC has S_o = 1.
  const TaskGraph g = make_cholesky(5, /*seed=*/5);
  const StreamContext ctx = streaming_intervals(g);
  std::int64_t max_vol = 0;
  NodeId max_node = kInvalidNode;
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.output_volume(v) > max_vol) {
      max_vol = g.output_volume(v);
      max_node = v;
    }
  }
  ASSERT_NE(max_node, kInvalidNode);
  EXPECT_EQ(ctx.s_out[static_cast<std::size_t>(max_node)], Rational(1));
}

TEST(StreamContext, BlockSourceIngestionJoinsComponentMax) {
  // Block 1 contains a single downsampler reading I=64 from memory; without
  // the ingestion stream its interval analysis would claim S_o = 1 even
  // though reading 64 elements takes 64 units.
  TaskGraph g;
  const NodeId src = g.add_source(64, "src");
  const NodeId down = g.add_compute("down");
  g.add_edge(src, down, 64);
  g.declare_output(down, 4);
  const std::vector<std::int32_t> block_of{0, 1};  // src in block 0, down in block 1
  const StreamContext ctx = compute_stream_context(g, block_of, 1);
  EXPECT_EQ(ctx.s_in[1], Rational(1));    // 64 / 64
  EXPECT_EQ(ctx.s_out[1], Rational(16));  // 64 / 4
}

TEST(StreamContext, WholeGraphSourceNotAffectedByIngestionRule) {
  // Graph sources have no input stream: Theorem 4.1 applies verbatim.
  const TaskGraph g = testing::figure9_graph1();
  const StreamContext ctx = streaming_intervals(g);
  EXPECT_EQ(ctx.s_out[0], Rational(1));
  EXPECT_EQ(ctx.s_out[1], Rational(8));
  EXPECT_EQ(ctx.s_out[2], Rational(16));
  EXPECT_EQ(ctx.s_out[3], Rational(1));
  EXPECT_EQ(ctx.s_out[4], Rational(1));
}

TEST(StreamContext, MembersOutsideBlockAreExcluded) {
  const TaskGraph g = testing::figure9_graph1();
  const std::vector<std::int32_t> block_of{0, 0, 1, 1, 1};
  const StreamContext ctx0 = compute_stream_context(g, block_of, 0);
  EXPECT_TRUE(ctx0.in_context(0));
  EXPECT_TRUE(ctx0.in_context(1));
  EXPECT_FALSE(ctx0.in_context(2));
  const StreamContext ctx1 = compute_stream_context(g, block_of, 1);
  EXPECT_FALSE(ctx1.in_context(0));
  EXPECT_TRUE(ctx1.in_context(3));
}

class IntervalPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalPropertySweep, IntervalsArePositiveAndConsistent) {
  const TaskGraph g = make_fft(8, GetParam());
  const StreamContext ctx = streaming_intervals(g);
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (g.kind(v) != NodeKind::kCompute) continue;
    // Equation 2: S_o = S_i / R.
    EXPECT_EQ(ctx.s_out[idx], ctx.s_in[idx] / g.rate(v)) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalPropertySweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(StreamingIntervals, BufferConsumersAreRateIndependent) {
  // Two consumers replaying the same buffer are independent memory streams
  // (per-edge split): a slow sibling must not throttle the fast one.
  TaskGraph g;
  const NodeId x = g.add_source(8, "x");
  const NodeId buf = g.add_buffer("buf");
  const NodeId fast = g.add_compute("fast");   // element-wise, 8 -> 8
  const NodeId slow = g.add_compute("slow");   // upsampler, 8 -> 64
  g.add_edge(x, buf, 8);
  g.add_edge(buf, fast, 8);
  g.add_edge(buf, slow, 8);
  g.declare_output(fast, 8);
  g.declare_output(slow, 64);
  const StreamContext ctx = streaming_intervals(g);
  EXPECT_EQ(ctx.s_out[fast], Rational(1));      // not slowed to 8
  EXPECT_EQ(ctx.s_in[slow], Rational(8));       // the upsampler is throttled
  EXPECT_EQ(ctx.s_out[slow], Rational(1));
  EXPECT_NE(ctx.node_wcc[fast], ctx.node_wcc[slow]);
}

TEST(StreamingIntervals, SinkAbsorbsAtPredecessorRate) {
  TaskGraph g;
  const NodeId s = g.add_source(4, "s");
  const NodeId up = g.add_compute("up");  // 4 -> 16
  const NodeId sink = g.add_sink("t");
  g.add_edge(s, up, 4);
  g.add_edge(up, sink, 16);
  const StreamContext ctx = streaming_intervals(g);
  EXPECT_EQ(ctx.s_in[sink], Rational(1));  // max volume 16 / I 16
  EXPECT_EQ(ctx.s_out[sink], Rational(0)); // sinks emit nothing
}

TEST(StreamingIntervals, DisconnectedComponentsIndependent) {
  TaskGraph g;
  const NodeId a = g.add_source(4, "a");
  const NodeId a1 = g.add_compute("a1");
  g.add_edge(a, a1, 4);
  g.declare_output(a1, 4);
  const NodeId b = g.add_source(128, "b");
  const NodeId b1 = g.add_compute("b1");
  g.add_edge(b, b1, 128);
  g.declare_output(b1, 128);
  const StreamContext ctx = streaming_intervals(g);
  EXPECT_EQ(ctx.s_out[a], Rational(1));  // the big component does not throttle it
  EXPECT_EQ(ctx.s_out[b], Rational(1));
  EXPECT_NE(ctx.node_wcc[a], ctx.node_wcc[b]);
}

// --------------------------------------- differential vs schedule_streaming

/// How many intervals matches_stream_context compared.
struct Comparisons {
  std::size_t members = 0;
  std::size_t buffers = 0;
};

/// Schedules `graph` at P = 1, 4, 16 and 64 with SB-LTS, SB-RLX and
/// by-work, and requires every block's timings to carry the intervals of
/// compute_stream_context for that block: each member's s_in and s_out, and
/// each buffer's s_out at the first block the buffer serves (the block in
/// which schedule_streaming times it). The schedule runs the stream-context
/// kernel over each block's active set in topological order, on scratch
/// that every block reuses; the wrapper runs it on fresh scratch over every
/// member and buffer in id order. So this pins that the kernel's result
/// depends on neither the order nor what earlier blocks left in the scratch.
::testing::AssertionResult matches_stream_context(const TaskGraph& graph, Comparisons& count) {
  const std::size_t n = graph.node_count();
  for (const std::int64_t pes : {1, 4, 16, 64}) {
    for (int which = 0; which < 3; ++which) {
      SpatialPartition partition =
          which == 2 ? partition_by_work(graph, pes)
                     : partition_spatial_blocks(
                           graph, pes, which == 0 ? PartitionVariant::kLTS : PartitionVariant::kRLX);
      const StreamingSchedule sched = schedule_streaming(graph, std::move(partition));
      const SpatialPartition& p = sched.partition;
      std::vector<std::vector<NodeId>> first_served(p.blocks.size());
      for (NodeId b = 0; static_cast<std::size_t>(b) < n; ++b) {
        if (graph.kind(b) != NodeKind::kBuffer) continue;
        std::int32_t first = -1;
        for (const EdgeId e : graph.out_edges(b)) {
          const auto blk = p.block_of[static_cast<std::size_t>(graph.edge(e).dst)];
          if (blk >= 0 && (first < 0 || blk < first)) first = blk;
        }
        if (first >= 0) first_served[static_cast<std::size_t>(first)].push_back(b);
      }
      for (std::size_t k = 0; k < p.blocks.size(); ++k) {
        const StreamContext ctx =
            compute_stream_context(graph, p.block_of, static_cast<std::int32_t>(k));
        const auto where = [&](NodeId v) {
          return ::testing::AssertionFailure()
                 << (which == 0 ? "SB-LTS" : which == 1 ? "SB-RLX" : "by-work") << " at P = "
                 << pes << ", block " << k << ", node " << v << ": ";
        };
        for (const NodeId v : p.blocks[k]) {
          const auto idx = static_cast<std::size_t>(v);
          if (sched.at(v).s_in != ctx.s_in[idx] || sched.at(v).s_out != ctx.s_out[idx]) {
            return where(v) << "schedule (" << sched.at(v).s_in << ", " << sched.at(v).s_out
                            << ") vs context (" << ctx.s_in[idx] << ", " << ctx.s_out[idx]
                            << ")";
          }
          ++count.members;
        }
        for (const NodeId b : first_served[k]) {
          if (sched.at(b).s_out != ctx.s_out[static_cast<std::size_t>(b)]) {
            return where(b) << "buffer s_out " << sched.at(b).s_out << " vs context "
                            << ctx.s_out[static_cast<std::size_t>(b)];
          }
          ++count.buffers;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(StreamContextDifferential, ScheduleIntervalsMatchComputeStreamContext) {
  Comparisons count;
  int graphs = 0;
  int rerouted_valid = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      const TaskGraph base =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      const std::uint64_t salt = seed * 4 + static_cast<std::uint64_t>(shape);
      const TaskGraph cut = testing::cut_through_buffers(base, salt);
      const TaskGraph rerouted = testing::reroute_through_buffers(base, salt);
      ASSERT_TRUE(matches_stream_context(base, count)) << "shape " << shape << ", seed " << seed;
      ASSERT_TRUE(cut.validate().empty());
      ASSERT_TRUE(matches_stream_context(cut, count)) << "cut, shape " << shape << ", seed " << seed;
      graphs += 2;
      if (rerouted.validate().empty()) {
        ASSERT_TRUE(matches_stream_context(rerouted, count))
            << "rerouted, shape " << shape << ", seed " << seed;
        ++graphs;
        ++rerouted_valid;
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const int scale = static_cast<int>(seed % 4);  // small to paper size
    for (const TaskGraph& graph :
         {make_fft(4 << scale, seed, testing::volumes_for(seed)),
          make_gaussian_elimination(4 + 4 * scale, seed, testing::volumes_for(seed)),
          make_cholesky(2 + 2 * scale, seed, testing::volumes_for(seed))}) {
      ++graphs;
      ASSERT_TRUE(matches_stream_context(graph, count)) << "seed " << seed << ", graph " << graphs;
    }
  }
  EXPECT_EQ(graphs, 480 + rerouted_valid + 180);
  EXPECT_GE(rerouted_valid, 10);
  EXPECT_GE(count.members, 100000U);
  EXPECT_GE(count.buffers, 10000U);
}

}  // namespace
}  // namespace sts
