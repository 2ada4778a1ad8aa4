#include "graph/serialization.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_specs.hpp"
#include "paper_examples.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

void expect_isomorphic(const TaskGraph& a, const TaskGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < a.node_count(); ++v) {
    EXPECT_EQ(a.kind(v), b.kind(v)) << v;
    EXPECT_EQ(a.name(v), b.name(v)) << v;
    EXPECT_EQ(a.output_volume(v), b.output_volume(v)) << v;
    EXPECT_EQ(a.input_volume(v), b.input_volume(v)) << v;
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge(e).src, b.edge(e).src) << e;
    EXPECT_EQ(a.edge(e).dst, b.edge(e).dst) << e;
    EXPECT_EQ(a.edge(e).volume, b.edge(e).volume) << e;
  }
}

TEST(Serialization, RoundTripsPaperExamples) {
  for (const TaskGraph& g :
       {testing::figure8_graph(), testing::figure9_graph1(), testing::figure9_graph2(),
        testing::buffer_split_example()}) {
    const TaskGraph loaded = load_task_graph_from_string(save_task_graph_to_string(g));
    expect_isomorphic(g, loaded);
    EXPECT_TRUE(loaded.validate().empty());
  }
}

TEST(Serialization, RoundTripsGeneratedWorkloads) {
  for (const std::uint64_t seed : {1u, 5u}) {
    const TaskGraph g = make_cholesky(5, seed);
    expect_isomorphic(g, load_task_graph_from_string(save_task_graph_to_string(g)));
  }
}

TEST(Serialization, ParsesCommentsAndBlankLines) {
  const TaskGraph g = load_task_graph_from_string(R"(
# a tiny pipeline
node 0 source src
output 0 16    # the input stream

node 1 compute half
output 1 8
edge 0 1 16
)");
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.output_volume(0), 16);
  EXPECT_EQ(g.rate(1), Rational(1, 2));
  EXPECT_TRUE(g.validate().empty());
}

TEST(Serialization, BufferAndSinkNodes) {
  const TaskGraph g = load_task_graph_from_string(R"(
node 0 source s
output 0 4
node 1 buffer b
output 1 8
node 2 compute c
node 3 sink t
edge 0 1 4
edge 1 2 8
edge 2 3 8
)");
  EXPECT_EQ(g.kind(1), NodeKind::kBuffer);
  EXPECT_EQ(g.kind(3), NodeKind::kSink);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Serialization, RejectsMalformedInput) {
  EXPECT_THROW((void)load_task_graph_from_string("frobnicate 1 2"), std::invalid_argument);
  EXPECT_THROW((void)load_task_graph_from_string("node 1 compute"),
               std::invalid_argument);  // ids must start at 0
  EXPECT_THROW((void)load_task_graph_from_string("node 0 gizmo"), std::invalid_argument);
  EXPECT_THROW((void)load_task_graph_from_string("edge 0"), std::invalid_argument);
  EXPECT_THROW((void)load_task_graph_from_string("node 0 source s"),
               std::invalid_argument);  // source without output record
  EXPECT_THROW((void)load_task_graph_from_string("node 0 compute c\noutput 5 4"),
               std::invalid_argument);  // output for unknown node
}

TEST(Serialization, SavedFormIsStable) {
  const TaskGraph g = testing::figure8_graph();
  const std::string once = save_task_graph_to_string(g);
  const std::string twice = save_task_graph_to_string(load_task_graph_from_string(once));
  EXPECT_EQ(once, twice);
}

// ---------------------------------------------------------------------------
// The byte forms against their CSR definition. canonical_fingerprint and the
// JSON and text writers read only the flat node and edge arrays; these tests
// write what each form owes a graph from the CSR accessors of the original
// (kind, declared_output, output_volume, out_degree) and compare it with what
// the writers produce for a fresh copy, whose CSR was never built.

void put64(std::string& out, std::int64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, 8);
  out.append(bytes, 8);
}

/// canonical_fingerprint by its definition: counts, then per node its kind
/// and a non-sink's declared output when set, else output_volume(), then
/// per edge (src, dst, volume).
std::string csr_fingerprint(const TaskGraph& graph) {
  std::string out;
  put64(out, static_cast<std::int64_t>(graph.node_count()));
  put64(out, static_cast<std::int64_t>(graph.edge_count()));
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    out += static_cast<char>(graph.kind(v));
    const std::int64_t declared = graph.declared_output(v);
    put64(out, graph.kind(v) != NodeKind::kSink && declared > 0 ? declared
                                                                 : graph.output_volume(v));
  }
  for (const Edge& edge : graph.edges()) {
    put64(out, edge.src);
    put64(out, edge.dst);
    put64(out, edge.volume);
  }
  return out;
}

/// The `output` record the text and JSON forms owe node v (0 = none): none
/// for a sink, none for a compute node with out-edges unless its declaration
/// contradicts O(v), and otherwise its declaration, or O(v) undeclared.
std::int64_t csr_output_record(const TaskGraph& graph, NodeId v) {
  if (graph.kind(v) == NodeKind::kSink) return 0;
  const std::int64_t declared = graph.declared_output(v);
  const std::int64_t derived = graph.output_volume(v);
  const bool derivable = graph.kind(v) == NodeKind::kCompute && graph.out_degree(v) > 0;
  if (derivable && (declared <= 0 || declared == derived)) return 0;
  return declared > 0 ? declared : derived;
}

std::vector<std::int64_t> json_output_records(const std::string& json) {
  const JsonDocument document = parse_json(json);
  std::vector<std::int64_t> records;
  for (const JsonValue& node : document.at("nodes").items()) {
    const JsonValue* output = node.find("output");
    records.push_back(output != nullptr ? output->as_int() : 0);
  }
  return records;
}

std::vector<std::int64_t> text_output_records(const std::string& text, std::size_t nodes) {
  std::vector<std::int64_t> records(nodes, 0);
  std::istringstream lines(text);
  std::string record;
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::int64_t v = -1;
    std::int64_t volume = 0;
    if (fields >> record && record == "output" && fields >> v >> volume) {
      records.at(static_cast<std::size_t>(v)) = volume;
    }
  }
  return records;
}

::testing::AssertionResult byte_forms_match_csr(const TaskGraph& graph) {
  // One fresh copy per writer: a writer that built the CSR of its copy
  // would otherwise hand the next one a warm graph.
  const TaskGraph for_key = graph;
  const TaskGraph for_json = graph;
  const TaskGraph for_text = graph;

  const std::string expected = csr_fingerprint(graph);
  if (expected.size() != 16 + 9 * graph.node_count() + 24 * graph.edge_count()) {
    return ::testing::AssertionFailure() << "reference of " << expected.size() << " bytes";
  }
  if (canonical_fingerprint(for_key) != expected) {
    return ::testing::AssertionFailure() << "fingerprint of a fresh copy";
  }

  std::vector<std::int64_t> owed;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    owed.push_back(csr_output_record(graph, v));
  }
  std::string json;
  append_task_graph_json(json, for_json);
  if (json_output_records(json) != owed) {
    return ::testing::AssertionFailure() << "JSON output records: " << json;
  }
  const std::string text = save_task_graph_to_string(for_text);
  if (text_output_records(text, graph.node_count()) != owed) {
    return ::testing::AssertionFailure() << "text output records:\n" << text;
  }

  if (canonical_fingerprint(task_graph_from_json(parse_json(json))) != expected) {
    return ::testing::AssertionFailure() << "JSON round trip: " << json;
  }
  if (canonical_fingerprint(load_task_graph_from_string(text)) != expected) {
    return ::testing::AssertionFailure() << "text round trip:\n" << text;
  }
  return ::testing::AssertionSuccess();
}

/// Volumes from a small set, so declarations match out-edge volumes about
/// as often as they contradict them.
std::int64_t small_volume(Prng& rng) { return std::int64_t{1} << rng.uniform_int(0, 3); }

/// A random graph that breaks the canonical rules every way the byte forms
/// must still encode: sinks with out-edges or declarations, declarations
/// contradicting (or matching) the out-edge volume, undeclared exits,
/// buffers anywhere, parallel edges and cycles.
TaskGraph random_invalid_graph(std::uint64_t seed) {
  Prng rng(seed);
  TaskGraph graph;
  const std::int64_t nodes = rng.uniform_int(0, 14);
  for (std::int64_t i = 0; i < nodes; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: (void)graph.add_source(small_volume(rng)); break;
      case 1: (void)graph.add_sink(); break;
      case 2: (void)graph.add_compute(); break;
      default: (void)graph.add_buffer(); break;
    }
  }
  if (nodes >= 2) {
    const std::int64_t edges = rng.uniform_int(0, 2 * nodes);
    for (std::int64_t e = 0; e < edges; ++e) {
      const auto src = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
      const auto dst = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
      (void)graph.add_edge(src, dst >= src ? dst + 1 : dst, small_volume(rng));
    }
  }
  for (NodeId v = 0; v < nodes; ++v) {
    if (rng.uniform_int(0, 2) == 0) graph.declare_output(v, small_volume(rng));
  }
  return graph;
}

/// A fuzz-shaped layered graph with a few declarations retuned (most then
/// contradict their out-edge volume) and, when it has a sink, an edge out of
/// it.
TaskGraph mutated_layered_graph(int shape, std::uint64_t seed) {
  TaskGraph graph = make_random_layered(testing::fuzz_spec_for(shape), seed);
  Prng rng(seed * 4 + static_cast<std::uint64_t>(shape));
  const auto last = static_cast<std::int64_t>(graph.node_count()) - 1;
  for (int i = 0; i < 3; ++i) {
    graph.declare_output(static_cast<NodeId>(rng.uniform_int(0, last)), small_volume(rng));
  }
  for (NodeId v = 0; v <= last; ++v) {
    if (graph.kind(v) == NodeKind::kSink) {
      (void)graph.add_edge(v, v == 0 ? 1 : 0, small_volume(rng));
      break;
    }
  }
  return graph;
}

TEST(SerializationByteForms, LayeredShapesMatchTheirCsrDefinition) {
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 700; ++seed) {
      const TaskGraph graph = make_random_layered(testing::fuzz_spec_for(shape), seed);
      ASSERT_TRUE(byte_forms_match_csr(graph)) << "shape " << shape << ", seed " << seed;
    }
  }
}

TEST(SerializationByteForms, MutatedLayeredShapesMatchTheirCsrDefinition) {
  int invalid = 0;
  for (int shape = 0; shape < 4; ++shape) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      const TaskGraph graph = mutated_layered_graph(shape, seed);
      invalid += graph.validate().empty() ? 0 : 1;
      ASSERT_TRUE(byte_forms_match_csr(graph)) << "shape " << shape << ", seed " << seed;
    }
  }
  EXPECT_GT(invalid, 1000) << "most mutations should break their graph";
}

TEST(SerializationByteForms, PaperTopologiesMatchTheirCsrDefinition) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const TaskGraph& graph : {make_chain(8, seed), make_fft(32, seed),
                                   make_gaussian_elimination(16, seed), make_cholesky(8, seed)}) {
      ASSERT_TRUE(byte_forms_match_csr(graph)) << "seed " << seed;
    }
  }
  for (const TaskGraph& graph :
       {testing::figure8_graph(), testing::figure9_graph1(), testing::figure9_graph2(),
        testing::buffer_split_example()}) {
    ASSERT_TRUE(byte_forms_match_csr(graph));
  }
}

TEST(SerializationByteForms, RandomInvalidGraphsMatchTheirCsrDefinition) {
  for (std::uint64_t seed = 1; seed <= 6000; ++seed) {
    ASSERT_TRUE(byte_forms_match_csr(random_invalid_graph(seed))) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sts
