// The shared edge table behind TaskGraph: copies share one table, a
// mutation that touches edges or the node count detaches the mutated graph
// and leaves every other reader's view unchanged, apply_graph_edits shares
// the base's table exactly for set_output lists, first accesses through
// different copies race safely, and the table's acyclicity verdict and weak
// components match the former standalone passes (kept here as references).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "fuzz_specs.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph_edit.hpp"
#include "graph/serialization.hpp"
#include "graph/task_graph.hpp"
#include "ml/models.hpp"
#include "paper_examples.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

// ------------------------------------------------------------- references

// The former is_acyclic (graph/algorithms.cpp): a Kahn pass of its own.
bool reference_is_acyclic(const TaskGraph& graph) {
  std::vector<std::size_t> deg(graph.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    deg[static_cast<std::size_t>(v)] = graph.in_degree(v);
  }
  std::vector<NodeId> stack;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (deg[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
  }
  std::size_t seen = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    ++seen;
    for (const EdgeId e : graph.out_edges(u)) {
      const NodeId w = graph.edge(e).dst;
      if (--deg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
    }
  }
  return seen == graph.node_count();
}

// The former component_forest and build_partition_groups
// (graph/serialization.cpp): a union-find over every edge, labels by lowest
// member id, members grouped by a counting sort.
WeakComponents reference_components(const TaskGraph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), NodeId{0});
  for (const Edge& edge : graph.edges()) unite(parent, edge.dst, edge.src);
  WeakComponents out;
  out.label.assign(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = static_cast<std::size_t>(find_root(parent, static_cast<NodeId>(v)));
    if (out.label[r] < 0) out.label[r] = out.count++;
    out.label[v] = out.label[r];
  }
  out.offsets.assign(static_cast<std::size_t>(out.count) + 1, 0);
  for (std::size_t v = 0; v < n; ++v) ++out.offsets[static_cast<std::size_t>(out.label[v]) + 1];
  for (std::size_t c = 0; c < static_cast<std::size_t>(out.count); ++c) {
    out.offsets[c + 1] += out.offsets[c];
  }
  out.members.resize(n);
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    out.members[cursor[static_cast<std::size_t>(out.label[v])]++] = static_cast<NodeId>(v);
  }
  return out;
}

::testing::AssertionResult table_matches_references(const TaskGraph& graph) {
  if (graph.acyclic() != reference_is_acyclic(graph)) {
    return ::testing::AssertionFailure() << "verdict " << graph.acyclic();
  }
  if (is_acyclic(graph) != graph.acyclic()) {
    return ::testing::AssertionFailure() << "is_acyclic disagrees with the verdict";
  }
  const WeakComponents expected = reference_components(graph);
  const WeakComponents& actual = graph.weak_components();
  if (actual.count != expected.count || actual.label != expected.label ||
      actual.members != expected.members || actual.offsets != expected.offsets) {
    return ::testing::AssertionFailure()
           << "components: " << actual.count << " vs " << expected.count;
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------- helpers

TaskGraph diamond() {
  TaskGraph g;
  const NodeId s = g.add_source(8, "s");
  const NodeId a = g.add_compute("a");
  const NodeId b = g.add_compute();
  const NodeId t = g.add_compute("t");
  g.add_edge(s, a, 8);
  g.add_edge(s, b, 8);
  g.add_edge(a, t, 8);
  g.add_edge(b, t, 8);
  g.declare_output(t, 8);
  return g;
}

/// Everything a reader sees of a graph's edges and their derived state.
struct EdgeView {
  std::vector<std::tuple<NodeId, NodeId, std::int64_t>> edges;
  std::vector<std::vector<EdgeId>> in;
  std::vector<std::vector<EdgeId>> out;
  bool acyclic = false;
  std::vector<std::int32_t> labels;
  std::string fingerprint;
  std::vector<std::int64_t> outputs;

  explicit EdgeView(const TaskGraph& g)
      : acyclic(g.acyclic()),
        labels(g.weak_components().label),
        fingerprint(canonical_fingerprint(g)) {
    for (const Edge& e : g.edges()) edges.emplace_back(e.src, e.dst, e.volume);
    for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
      in.emplace_back(g.in_edges(v).begin(), g.in_edges(v).end());
      out.emplace_back(g.out_edges(v).begin(), g.out_edges(v).end());
      outputs.push_back(g.output_volume(v));
    }
  }
  bool operator==(const EdgeView&) const = default;
};

// ------------------------------------------------------------------ tests

TEST(TaskGraphEdgeTable, CopiesShareOneTable) {
  const TaskGraph g = diamond();
  const TaskGraph copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy.shares_edge_table_with(g));
  TaskGraph assigned;
  assigned = g;
  EXPECT_TRUE(assigned.shares_edge_table_with(g));
  TaskGraph moved = TaskGraph(copy);
  EXPECT_TRUE(moved.shares_edge_table_with(g));
  // Sharing survives deriving: a copy of a graph whose CSR is built reads
  // the same arrays.
  ASSERT_EQ(g.in_degree(3), 2u);
  const TaskGraph late = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(late.shares_edge_table_with(g));
  EXPECT_EQ(late.in_edges(3).data(), g.in_edges(3).data());
  EXPECT_EQ(late.name(0), "s");
  EXPECT_EQ(late.name(2), "");
  // Names and outputs are per graph: declare_output keeps the table.
  moved.declare_output(3, 8);
  EXPECT_TRUE(moved.shares_edge_table_with(g));
  EXPECT_FALSE(TaskGraph().shares_edge_table_with(TaskGraph()));
}

TEST(TaskGraphEdgeTable, MutatingACopyDetachesItAndLeavesTheOriginal) {
  struct Mutation {
    const char* what;
    void (*apply)(TaskGraph&);
  };
  const std::array<Mutation, 6> mutations = {{
      {"add_compute", [](TaskGraph& g) { (void)g.add_compute("x"); }},
      {"add_source", [](TaskGraph& g) { (void)g.add_source(4); }},
      {"add_sink", [](TaskGraph& g) { (void)g.add_sink(); }},
      {"add_buffer", [](TaskGraph& g) { (void)g.add_buffer(); }},
      {"add_edge", [](TaskGraph& g) { (void)g.add_edge(3, 1, 8); }},  // closes a cycle
      {"reserve", [](TaskGraph& g) { g.reserve(64, 64); }},
  }};
  const EdgeView before(diamond());
  for (const bool derive_first : {false, true}) {
    for (const Mutation& mutation : mutations) {
      // The copy is made before or after the shared table is derived.
      const TaskGraph original = diamond();
      if (derive_first) ASSERT_TRUE(original.acyclic());
      TaskGraph copy = original;
      ASSERT_TRUE(copy.shares_edge_table_with(original));
      mutation.apply(copy);
      EXPECT_FALSE(copy.shares_edge_table_with(original)) << mutation.what;
      EXPECT_TRUE(EdgeView(original) == before) << mutation.what;
      EXPECT_EQ(canonical_fingerprint(original), before.fingerprint) << mutation.what;
      EXPECT_TRUE(table_matches_references(copy)) << mutation.what;
    }
  }
  // The mutated copy sees its own change.
  TaskGraph copy = diamond();
  const TaskGraph original = copy;
  (void)copy.add_edge(3, 1, 8);
  EXPECT_FALSE(copy.acyclic());
  EXPECT_TRUE(original.acyclic());
  EXPECT_EQ(copy.edge_count(), original.edge_count() + 1);
  // A graph holding its table alone keeps building on it until something
  // reads the derived state, and detaches onto a fresh one after.
  TaskGraph solo;
  (void)solo.add_source(4);
  (void)solo.add_compute();
  (void)solo.add_edge(0, 1, 4);
  ASSERT_EQ(solo.out_degree(0), 1u);
  (void)solo.add_edge(0, 1, 4);
  EXPECT_EQ(solo.out_degree(0), 2u);
  EXPECT_EQ(solo.weak_components().count, 1);
}

TEST(TaskGraphEdgeTable, ConcurrentFirstAccessThroughCopiesIsSafe) {
  // Copies made before anything is derived share one unbuilt table; each
  // thread's first access through its own copy races to build it (and its
  // copy's own profiles). Run under ThreadSanitizer in CI.
  for (int round = 0; round < 20; ++round) {
    TaskGraph g = make_fft(8, static_cast<std::uint64_t>(round) + 1);
    testing::append_component(g, make_chain(5, static_cast<std::uint64_t>(round) + 3), "c");
    std::vector<TaskGraph> copies(8, g);
    std::array<std::int64_t, 8> sums{};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < copies.size(); ++t) {
      threads.emplace_back([&copies, &sums, t] {
        const TaskGraph& mine = copies[t];
        std::int64_t sum = mine.acyclic() ? 1 : 0;
        sum += mine.weak_components().count;
        for (NodeId v = 0; static_cast<std::size_t>(v) < mine.node_count(); ++v) {
          sum += mine.work(v) + static_cast<std::int64_t>(mine.in_degree(v));
          for (const EdgeId e : mine.out_edges(v)) sum += mine.edge(e).volume;
        }
        sums[t] = sum;
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::int64_t sum : sums) EXPECT_EQ(sum, sums[0]);
    for (const TaskGraph& copy : copies) EXPECT_TRUE(copy.shares_edge_table_with(g));
    EXPECT_TRUE(table_matches_references(g));
  }
}

TEST(TaskGraphEdgeTableDifferential, VerdictAndComponentsMatchTheFormerPasses) {
  int graphs = 0;
  int cyclic = 0;
  int multi = 0;
  const auto check = [&](const TaskGraph& graph, const std::string& what) {
    ++graphs;
    cyclic += graph.acyclic() ? 0 : 1;
    multi += graph.weak_components().count > 1 ? 1 : 0;
    EXPECT_TRUE(table_matches_references(graph)) << what;
  };
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      const std::string what = "shape " + std::to_string(shape) + ", seed " + std::to_string(seed);
      const TaskGraph base =
          make_random_layered(testing::fuzz_spec_for(shape), seed, testing::volumes_for(seed));
      check(base, what);
      check(testing::cut_through_buffers(base, seed), what + ", cut");
      check(testing::reroute_through_buffers(base, seed), what + ", rerouted");
      // A back edge from the last node to the first node with an out-edge
      // closes a directed cycle in one component of a multi-component graph.
      TaskGraph composed = base;
      testing::append_component(composed, make_chain(3, seed), "tail");
      const Edge first = composed.edge(0);
      (void)composed.add_edge(first.dst, first.src, first.volume);
      check(composed, what + ", composed with a cycle");
    }
  }
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const TaskGraph& graph :
         {make_chain(6, seed), make_fft(16, seed), make_gaussian_elimination(8, seed),
          make_cholesky(4, seed)}) {
      check(graph, "paper topology, seed " + std::to_string(seed));
    }
  }
  for (const TaskGraph& graph :
       {testing::figure6_graph(), testing::figure8_graph(), testing::figure9_graph1(),
        testing::figure9_graph2(), testing::buffer_split_example(),
        build_resnet50(ResNetConfig{}), build_transformer_encoder(TransformerConfig{})}) {
    check(graph, "fixed graph");
  }
  // Hand-made cycles: a 2-cycle, a self-contained ring beside a DAG, and
  // isolated nodes (one component each).
  TaskGraph ring;
  for (int i = 0; i < 4; ++i) (void)ring.add_compute();
  for (NodeId v = 0; v < 4; ++v) (void)ring.add_edge(v, (v + 1) % 4, 2);
  (void)ring.add_source(2);
  (void)ring.add_sink();
  (void)ring.add_edge(4, 5, 2);
  (void)ring.add_compute();
  check(ring, "ring");
  TaskGraph two_cycle;
  (void)two_cycle.add_compute();
  (void)two_cycle.add_compute();
  (void)two_cycle.add_edge(0, 1, 3);
  (void)two_cycle.add_edge(1, 0, 3);
  check(two_cycle, "two-cycle");
  check(TaskGraph(), "empty");
  EXPECT_EQ(TaskGraph().weak_components().count, 0);
  EXPECT_TRUE(TaskGraph().acyclic());
  EXPECT_GE(cyclic, 240);
  EXPECT_GE(multi, 240);
  EXPECT_EQ(graphs, 4 * 60 * 4 + 100 + 7 + 3);
}

TEST(GraphEditSharing, SharesTheTableExactlyWhenEveryEditIsSetOutput) {
  const TaskGraph base = diamond();
  const auto set_output = [](NodeId v, std::int64_t volume) {
    return GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, v, -1, -1, volume, ""};
  };
  const std::vector<std::pair<std::vector<GraphEdit>, bool>> cases = {
      {{}, true},
      {{set_output(3, 16)}, true},
      {{set_output(3, 16), set_output(0, 4), set_output(3, 8)}, true},
      {{set_output(3, 16),
        GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSink, -1, -1, -1, 0, "out"}},
       false},
      {{GraphEdit{GraphEdit::Op::kAddEdge, NodeKind::kCompute, -1, 1, 2, 8, ""}}, false},
      {{GraphEdit{GraphEdit::Op::kRemoveEdge, NodeKind::kCompute, -1, 0, 2, 0, ""}}, false},
      {{GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, 0, 1, 8, ""}}, false},
      {{GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, 2, -1, -1, 0, ""}}, false},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [edits, shares] = cases[i];
    const TaskGraph edited = apply_graph_edits(base, edits);
    EXPECT_EQ(edited.shares_edge_table_with(base), shares) << "case " << i;
    EXPECT_TRUE(table_matches_references(edited)) << "case " << i;
  }
  // A retune of a base whose table is already derived reads the base's
  // arrays; its own outputs follow the edit, the base's stay.
  ASSERT_TRUE(base.acyclic());
  const std::vector<GraphEdit> retune = {set_output(3, 16)};
  const TaskGraph retuned = apply_graph_edits(base, retune);
  EXPECT_EQ(retuned.in_edges(3).data(), base.in_edges(3).data());
  EXPECT_EQ(retuned.output_volume(3), 16);
  EXPECT_EQ(base.output_volume(3), 8);
  EXPECT_EQ(retuned.name(3), "t");
  // Removing a node renumbers the names with the records.
  const std::vector<GraphEdit> remove_a = {
      GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, 1, -1, -1, 0, ""}};
  const TaskGraph removed = apply_graph_edits(base, remove_a);
  ASSERT_EQ(removed.node_count(), 3u);
  EXPECT_EQ(removed.name(0), "s");
  EXPECT_EQ(removed.name(1), "");
  EXPECT_EQ(removed.name(2), "t");
}

}  // namespace
}  // namespace sts
