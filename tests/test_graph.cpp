#include "graph/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <thread>

#include "paper_examples.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

bool has_issue_containing(const std::vector<std::string>& issues, const std::string& text) {
  return std::any_of(issues.begin(), issues.end(), [&](const std::string& s) {
    return s.find(text) != std::string::npos;
  });
}

TEST(TaskGraph, BuildsAndQueriesVolumes) {
  TaskGraph g;
  const NodeId src = g.add_source(8, "src");
  const NodeId mid = g.add_compute("mid");
  g.add_edge(src, mid, 8);
  g.declare_output(mid, 4);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.input_volume(src), 0);
  EXPECT_EQ(g.output_volume(src), 8);
  EXPECT_EQ(g.input_volume(mid), 8);
  EXPECT_EQ(g.output_volume(mid), 4);
  EXPECT_EQ(g.rate(mid), Rational(1, 2));
  EXPECT_TRUE(g.is_downsampler(mid));
  EXPECT_TRUE(g.validate().empty());
}

TEST(TaskGraph, NodeKindPredicates) {
  TaskGraph g;
  const NodeId src = g.add_source(4, "s");
  const NodeId up = g.add_compute("up");
  const NodeId elem = g.add_compute("e");
  const NodeId down = g.add_compute("d");
  g.add_edge(src, up, 4);
  g.add_edge(up, elem, 16);
  g.add_edge(elem, down, 16);
  g.declare_output(down, 4);
  EXPECT_TRUE(g.is_upsampler(up));
  EXPECT_TRUE(g.is_elementwise(elem));
  EXPECT_TRUE(g.is_downsampler(down));
  EXPECT_EQ(g.rate(up), Rational(4));
}

TEST(TaskGraph, WorkIsMaxOfVolumes) {
  const TaskGraph g = testing::figure8_graph();
  EXPECT_EQ(g.work(0), 16);  // source: O only
  EXPECT_EQ(g.work(1), 16);  // max(16, 4)
  EXPECT_EQ(g.work(3), 32);  // max(16, 32)
  EXPECT_EQ(g.total_work(), 16 + 16 + 4 + 32 + 32);
}

TEST(TaskGraph, BufferNodesHaveNoWorkAndNoPe) {
  const TaskGraph g = testing::buffer_split_example();
  const NodeId buf = 3;
  ASSERT_EQ(g.kind(buf), NodeKind::kBuffer);
  EXPECT_EQ(g.work(buf), 0);
  EXPECT_FALSE(g.occupies_pe(buf));
  EXPECT_EQ(g.rate(buf), Rational(2));
}

TEST(TaskGraphValidate, AcceptsPaperExamples) {
  EXPECT_TRUE(testing::figure8_graph().validate().empty());
  EXPECT_TRUE(testing::figure9_graph1().validate().empty());
  EXPECT_TRUE(testing::figure9_graph2().validate().empty());
  EXPECT_TRUE(testing::figure6_graph().validate().empty());
  EXPECT_TRUE(testing::buffer_split_example().validate().empty());
}

TEST(TaskGraphValidate, RejectsUnequalInputVolumes) {
  TaskGraph g;
  const NodeId a = g.add_source(4, "a");
  const NodeId b = g.add_source(8, "b");
  const NodeId join = g.add_compute("join");
  g.add_edge(a, join, 4);
  g.add_edge(b, join, 8);
  g.declare_output(join, 4);
  EXPECT_TRUE(has_issue_containing(g.validate(), "input edges carry different volumes"));
}

TEST(TaskGraphValidate, RejectsUnequalOutputVolumes) {
  TaskGraph g;
  const NodeId a = g.add_source(4, "a");
  const NodeId c1 = g.add_compute("c1");
  const NodeId c2 = g.add_compute("c2");
  g.add_edge(a, c1, 4);
  g.add_edge(a, c2, 8);  // source now emits 4 and 8
  g.declare_output(c1, 4);
  g.declare_output(c2, 8);
  EXPECT_TRUE(has_issue_containing(g.validate(), "output edges carry different volumes"));
}

TEST(TaskGraphValidate, RejectsExitComputeWithoutDeclaredOutput) {
  TaskGraph g;
  const NodeId a = g.add_source(4, "a");
  const NodeId c = g.add_compute("c");
  g.add_edge(a, c, 4);
  EXPECT_TRUE(has_issue_containing(g.validate(), "exit compute node without declared output"));
}

TEST(TaskGraphValidate, RejectsComputeWithoutInputs) {
  TaskGraph g;
  const NodeId c = g.add_compute("c");
  g.declare_output(c, 4);
  EXPECT_TRUE(has_issue_containing(g.validate(), "without inputs"));
}

TEST(TaskGraphValidate, RejectsDanglingBuffer) {
  TaskGraph g;
  const NodeId a = g.add_source(4, "a");
  const NodeId buf = g.add_buffer("buf");
  g.add_edge(a, buf, 4);
  g.declare_output(buf, 8);
  EXPECT_TRUE(has_issue_containing(g.validate(), "buffer node without outputs"));
}

TEST(TaskGraphValidate, RejectsDirectedCycle) {
  TaskGraph g;
  const NodeId a = g.add_source(4, "a");
  const NodeId b = g.add_compute("b");
  const NodeId c = g.add_compute("c");
  g.add_edge(a, b, 4);
  g.add_edge(b, c, 4);
  g.add_edge(c, b, 4);
  g.declare_output(c, 4);
  EXPECT_TRUE(has_issue_containing(g.validate(), "directed cycle"));
}

TEST(TaskGraphValidate, RejectsDeclaredOutputContradictingEdges) {
  TaskGraph g;
  const NodeId a = g.add_source(4, "a");
  const NodeId b = g.add_compute("b");
  g.add_edge(a, b, 4);
  g.declare_output(b, 4);
  const NodeId c = g.add_compute("c");
  g.add_edge(b, c, 8);  // contradicts declared 4
  g.declare_output(c, 8);
  EXPECT_TRUE(has_issue_containing(g.validate(), "contradicts out-edge volume"));
}

TEST(TaskGraphValidate, RejectsBufferOnWccCycle) {
  // Undirected cycle through a buffer (Section 4.2.3): x feeds both a buffer
  // and, via a compute path, the buffer's consumer.
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
  EXPECT_TRUE(has_issue_containing(g.validate(), "buffer placement"));
}

TEST(TaskGraphValidate, ValidateOrThrowListsIssues) {
  TaskGraph g;
  const NodeId c = g.add_compute("lonely");
  (void)c;
  EXPECT_THROW(g.validate_or_throw(), std::invalid_argument);
}

TEST(TaskGraph, ApiGuards) {
  TaskGraph g;
  EXPECT_THROW(g.add_source(0, "zero"), std::invalid_argument);
  const NodeId a = g.add_source(4, "a");
  EXPECT_THROW(g.add_edge(a, a, 4), std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, 42, 4), std::out_of_range);
  EXPECT_THROW(g.add_edge(a, a + 1, 4), std::out_of_range);
  const NodeId b = g.add_compute("b");
  EXPECT_THROW(g.add_edge(a, b, 0), std::invalid_argument);
  EXPECT_THROW(g.declare_output(b, -1), std::invalid_argument);
  EXPECT_THROW((void)g.rate(a), std::logic_error);  // sources have no production rate
}

TEST(TaskGraph, CopyRebuildsCsrAndMovePreservesIt) {
  TaskGraph g;
  const NodeId s = g.add_source(8, "s");
  const NodeId c = g.add_compute("c");
  g.add_edge(s, c, 8);
  g.declare_output(c, 8);
  ASSERT_EQ(g.work(c), 8);  // forces the CSR build

  const TaskGraph copy = g;  // shares the edge table, builds its own profiles
  EXPECT_EQ(copy.in_degree(c), 1u);
  EXPECT_EQ(copy.work(c), 8);

  const TaskGraph moved = std::move(g);
  EXPECT_EQ(moved.out_degree(s), 1u);
  EXPECT_EQ(moved.work(c), 8);
}

TEST(TaskGraph, ConcurrentFirstAccessIsSafe) {
  // The lazy edge-table and profile builds must be safe for threads sharing
  // a const graph -- the ScheduleCache schedules on shared graphs outside
  // its lock.
  for (int round = 0; round < 20; ++round) {
    const TaskGraph g = make_fft(8, static_cast<std::uint64_t>(round) + 1);
    std::vector<std::thread> threads;
    std::array<std::int64_t, 8> sums{};
    for (std::size_t t = 0; t < sums.size(); ++t) {
      threads.emplace_back([&g, &sums, t] {
        std::int64_t sum = 0;
        for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
          sum += g.work(v) + static_cast<std::int64_t>(g.in_degree(v));
          for (const EdgeId e : g.out_edges(v)) sum += g.edge(e).volume;
        }
        sums[t] = sum;
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::int64_t sum : sums) EXPECT_EQ(sum, sums[0]);
  }
}

}  // namespace
}  // namespace sts
