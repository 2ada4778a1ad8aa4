// Differential suite for apply_graph_edits: the copy-and-patch implementation
// against a reference that replays the base node by node into drafts and
// rebuilds the result through the public TaskGraph API. Random edit lists,
// with and without removals, on multi-component graphs must produce
// identical records (kinds, names, declared outputs, edge order), and an
// invalid list must fail with the same exception type and message.

#include "graph/graph_edit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <typeinfo>
#include <utility>
#include <vector>

#include "fuzz_specs.hpp"
#include "graph/task_graph.hpp"
#include "paper_examples.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

[[noreturn]] void reference_fail(const std::string& what) {
  throw std::invalid_argument("graph edit: " + what);
}

/// The draft-and-rebuild algorithm: copy every base record into a draft,
/// apply the edits to the drafts, then rebuild the graph through add_* calls
/// (which is also where a non-positive or self-looping edge is refused).
TaskGraph reference_apply_graph_edits(const TaskGraph& base, const std::vector<GraphEdit>& edits) {
  struct NodeDraft {
    NodeKind kind;
    std::string name;
    std::int64_t declared_output;
    bool alive;
  };
  struct EdgeDraft {
    NodeId src;
    NodeId dst;
    std::int64_t volume;
    bool alive;
  };

  std::vector<NodeDraft> nodes;
  for (NodeId v = 0; static_cast<std::size_t>(v) < base.node_count(); ++v) {
    nodes.push_back({base.kind(v), base.name(v), base.declared_output(v), true});
  }
  std::vector<EdgeDraft> edges;
  for (const Edge& edge : base.edges()) edges.push_back({edge.src, edge.dst, edge.volume, true});

  const auto check_alive = [&nodes](NodeId v, const char* role) {
    if (v < 0 || static_cast<std::size_t>(v) >= nodes.size()) {
      reference_fail(std::string(role) + " node " + std::to_string(v) + " out of range");
    }
    if (!nodes[static_cast<std::size_t>(v)].alive) {
      reference_fail(std::string(role) + " node " + std::to_string(v) + " was removed");
    }
  };
  const auto find_edge = [&edges](NodeId src, NodeId dst) -> EdgeDraft* {
    for (EdgeDraft& edge : edges) {
      if (edge.alive && edge.src == src && edge.dst == dst) return &edge;
    }
    return nullptr;
  };

  for (const GraphEdit& edit : edits) {
    switch (edit.op) {
      case GraphEdit::Op::kAddNode:
        if (edit.kind == NodeKind::kSource && edit.volume <= 0) {
          reference_fail("add_node source requires a positive output");
        }
        nodes.push_back({edit.kind, edit.name, edit.volume, true});
        break;
      case GraphEdit::Op::kRemoveNode:
        check_alive(edit.node, "remove_node");
        nodes[static_cast<std::size_t>(edit.node)].alive = false;
        for (EdgeDraft& edge : edges) {
          if (edge.src == edit.node || edge.dst == edit.node) edge.alive = false;
        }
        break;
      case GraphEdit::Op::kAddEdge:
        check_alive(edit.src, "add_edge src");
        check_alive(edit.dst, "add_edge dst");
        edges.push_back({edit.src, edit.dst, edit.volume, true});
        break;
      case GraphEdit::Op::kRemoveEdge: {
        check_alive(edit.src, "remove_edge src");
        check_alive(edit.dst, "remove_edge dst");
        EdgeDraft* edge = find_edge(edit.src, edit.dst);
        if (!edge) {
          reference_fail("remove_edge: no edge " + std::to_string(edit.src) + " -> " +
                         std::to_string(edit.dst));
        }
        edge->alive = false;
        break;
      }
      case GraphEdit::Op::kSetOutput:
        check_alive(edit.node, "set_output");
        nodes[static_cast<std::size_t>(edit.node)].declared_output = edit.volume;
        break;
      case GraphEdit::Op::kSetEdgeVolume: {
        check_alive(edit.src, "set_edge_volume src");
        check_alive(edit.dst, "set_edge_volume dst");
        EdgeDraft* edge = find_edge(edit.src, edit.dst);
        if (!edge) {
          reference_fail("set_edge_volume: no edge " + std::to_string(edit.src) + " -> " +
                         std::to_string(edit.dst));
        }
        edge->volume = edit.volume;
        break;
      }
    }
  }

  std::vector<NodeId> remap(nodes.size(), -1);
  TaskGraph out;
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    const NodeDraft& draft = nodes[v];
    if (!draft.alive) continue;
    NodeId mapped = -1;
    switch (draft.kind) {
      case NodeKind::kSource:
        if (draft.declared_output <= 0) {
          reference_fail("node " + std::to_string(v) + ": source lost its declared output");
        }
        mapped = out.add_source(draft.declared_output, draft.name);
        break;
      case NodeKind::kCompute:
        mapped = out.add_compute(draft.name);
        if (draft.declared_output > 0) out.declare_output(mapped, draft.declared_output);
        break;
      case NodeKind::kBuffer:
        mapped = out.add_buffer(draft.name);
        if (draft.declared_output > 0) out.declare_output(mapped, draft.declared_output);
        break;
      case NodeKind::kSink:
        mapped = out.add_sink(draft.name);
        break;
    }
    remap[v] = mapped;
  }
  for (const EdgeDraft& edge : edges) {
    if (!edge.alive) continue;
    out.add_edge(remap[static_cast<std::size_t>(edge.src)],
                 remap[static_cast<std::size_t>(edge.dst)], edge.volume);
  }
  return out;
}

/// Random layered components plus the paper examples (a buffer node among
/// them) and a sink carrying a stray declared output, which a materialized
/// graph drops.
TaskGraph multi_component_base(std::uint64_t seed) {
  TaskGraph graph;
  for (int c = 0; c < 3; ++c) {
    LayeredSpec spec;
    spec.layers = 3 + c;
    spec.width = 2 + c;
    spec.edge_probability = 0.4;
    testing::append_component(
        graph, make_random_layered(spec, seed * 7 + static_cast<std::uint64_t>(c)),
        "r" + std::to_string(c) + "_");
  }
  testing::append_component(graph, testing::figure8_graph(), "f8_");
  testing::append_component(graph, testing::buffer_split_example(), "bs_");
  const NodeId src = graph.add_source(8, "tail_src");
  const NodeId sink = graph.add_sink("tail_sink");
  graph.add_edge(src, sink, 8);
  graph.declare_output(sink, 8);
  return graph;
}

/// A random edit list over `base`. Ids stay mostly in range (the current
/// node count grows with every add_node) but sometimes step outside it;
/// volumes are mostly positive; edge ops mostly name an existing edge, base
/// or added earlier in the list.
std::vector<GraphEdit> random_edits(const TaskGraph& base, Prng& rng, bool removals) {
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) { return rng.uniform_int(lo, hi); };
  const auto volume = [&]() -> std::int64_t {
    const std::int64_t roll = pick(0, 19);
    if (roll == 0) return 0;
    if (roll == 1) return -4;
    return std::int64_t{1} << pick(0, 6);
  };
  std::int64_t nodes = static_cast<std::int64_t>(base.node_count());
  const auto node = [&]() -> NodeId {
    if (pick(0, 24) == 0) return static_cast<NodeId>(nodes + pick(0, 3));  // out of range
    return static_cast<NodeId>(pick(0, nodes - 1));
  };
  std::vector<std::pair<NodeId, NodeId>> added;
  const auto endpoints = [&]() -> std::pair<NodeId, NodeId> {
    if (!added.empty() && pick(0, 2) == 0) {
      return added[static_cast<std::size_t>(pick(0, static_cast<std::int64_t>(added.size()) - 1))];
    }
    if (base.edge_count() > 0 && pick(0, 3) != 0) {
      const Edge& edge = base.edge(static_cast<EdgeId>(
          pick(0, static_cast<std::int64_t>(base.edge_count()) - 1)));
      return {edge.src, edge.dst};
    }
    const NodeId src = node();
    return {src, pick(0, 9) == 0 ? src : node()};  // sometimes a self loop
  };

  std::vector<GraphEdit> edits;
  const std::int64_t count = pick(1, 8);
  for (std::int64_t i = 0; i < count; ++i) {
    GraphEdit edit;
    switch (pick(0, removals ? 5 : 3)) {
      case 0:
        edit.op = GraphEdit::Op::kSetOutput;
        edit.node = node();
        edit.volume = volume();
        break;
      case 1: {
        edit.op = GraphEdit::Op::kSetEdgeVolume;
        std::tie(edit.src, edit.dst) = endpoints();
        edit.volume = volume();
        break;
      }
      case 2:
        edit.op = GraphEdit::Op::kAddNode;
        edit.kind = static_cast<NodeKind>(pick(0, 3));
        edit.volume = pick(0, 3) == 0 ? 0 : volume();
        if (pick(0, 1) == 0) edit.name = "added" + std::to_string(i);
        ++nodes;
        break;
      case 3: {
        edit.op = GraphEdit::Op::kAddEdge;
        std::tie(edit.src, edit.dst) = endpoints();
        if (pick(0, 1) == 0) edit.dst = static_cast<NodeId>(pick(0, nodes - 1));
        edit.volume = volume();
        added.emplace_back(edit.src, edit.dst);
        break;
      }
      case 4:
        edit.op = GraphEdit::Op::kRemoveEdge;
        std::tie(edit.src, edit.dst) = endpoints();
        break;
      default:
        edit.op = GraphEdit::Op::kRemoveNode;
        edit.node = node();
        break;
    }
    edits.push_back(std::move(edit));
  }
  return edits;
}

struct Outcome {
  std::optional<TaskGraph> graph;
  std::string error_type;
  std::string error;
};

template <typename Apply>
Outcome run(Apply&& apply) {
  Outcome outcome;
  try {
    outcome.graph = apply();
  } catch (const std::exception& e) {
    outcome.error_type = typeid(e).name();
    outcome.error = e.what();
  }
  return outcome;
}

/// Runs both implementations and requires the same records or the same
/// failure. Returns true when the list applied cleanly.
bool expect_same_outcome(const TaskGraph& base, const std::vector<GraphEdit>& edits,
                         const std::string& what) {
  const Outcome expected = run([&] { return reference_apply_graph_edits(base, edits); });
  const Outcome actual = run([&] { return apply_graph_edits(base, edits); });
  EXPECT_EQ(actual.graph.has_value(), expected.graph.has_value())
      << what << ": expected " << (expected.graph ? "success" : expected.error) << ", got "
      << (actual.graph ? "success" : actual.error);
  if (!expected.graph || !actual.graph) {
    EXPECT_EQ(actual.error_type, expected.error_type) << what;
    EXPECT_EQ(actual.error, expected.error) << what;
    return false;
  }
  const TaskGraph& want = *expected.graph;
  const TaskGraph& got = *actual.graph;
  EXPECT_EQ(got.node_count(), want.node_count()) << what;
  EXPECT_EQ(got.edge_count(), want.edge_count()) << what;
  if (got.node_count() != want.node_count() || got.edge_count() != want.edge_count()) {
    return true;
  }
  for (NodeId v = 0; static_cast<std::size_t>(v) < want.node_count(); ++v) {
    EXPECT_EQ(got.kind(v), want.kind(v)) << what << ", node " << v;
    EXPECT_EQ(got.name(v), want.name(v)) << what << ", node " << v;
    EXPECT_EQ(got.declared_output(v), want.declared_output(v)) << what << ", node " << v;
  }
  for (EdgeId e = 0; static_cast<std::size_t>(e) < want.edge_count(); ++e) {
    EXPECT_EQ(got.edge(e).src, want.edge(e).src) << what << ", edge " << e;
    EXPECT_EQ(got.edge(e).dst, want.edge(e).dst) << what << ", edge " << e;
    EXPECT_EQ(got.edge(e).volume, want.edge(e).volume) << what << ", edge " << e;
  }
  // The patched copy's derived views (CSR, profiles) agree too.
  EXPECT_EQ(got.validate(), want.validate()) << what;
  return true;
}

std::string describe(std::uint64_t seed, int list) {
  return "seed " + std::to_string(seed) + " list " + std::to_string(list);
}

void run_random_lists(bool removals) {
  int applied = 0;
  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const TaskGraph base = multi_component_base(seed);
    Prng rng(seed * 0x9e3779b97f4a7c15ULL + (removals ? 1 : 0));
    for (int list = 0; list < 250; ++list) {
      const std::vector<GraphEdit> edits = random_edits(base, rng, removals);
      (expect_same_outcome(base, edits, describe(seed, list)) ? applied : failed) += 1;
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(applied, 100);
  EXPECT_GT(failed, 100);
}

TEST(GraphEditDifferential, RandomListsWithoutRemovalsMatchReference) { run_random_lists(false); }

TEST(GraphEditDifferential, RandomListsWithRemovalsMatchReference) { run_random_lists(true); }

GraphEdit set_output(NodeId node, std::int64_t volume) {
  return GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, node, -1, -1, volume, ""};
}

GraphEdit edge_op(GraphEdit::Op op, NodeId src, NodeId dst, std::int64_t volume) {
  return GraphEdit{op, NodeKind::kCompute, -1, src, dst, volume, ""};
}

TEST(GraphEditDifferential, InvalidListsFailLikeTheReference) {
  const TaskGraph base = multi_component_base(3);
  const auto n = static_cast<NodeId>(base.node_count());
  const Edge first = base.edge(0);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < n; ++v) {
    if (base.kind(v) == NodeKind::kSource) sources.push_back(v);
  }
  ASSERT_GE(sources.size(), 2u);
  const NodeId source = sources.front();

  const std::vector<std::pair<std::vector<GraphEdit>, const char*>> cases = {
      {{set_output(n + 2, 4)}, "out-of-range node"},
      {{set_output(-1, 4)}, "negative node id"},
      {{edge_op(GraphEdit::Op::kAddEdge, first.src, first.dst, 0)}, "zero-volume add_edge"},
      {{edge_op(GraphEdit::Op::kSetEdgeVolume, first.src, first.dst, 0)},
       "zero-volume set_edge_volume"},
      {{edge_op(GraphEdit::Op::kAddEdge, first.src, first.src, 4)}, "self loop"},
      {{edge_op(GraphEdit::Op::kAddEdge, first.src, first.src, 0)},
       "self loop with zero volume: the volume is reported"},
      {{edge_op(GraphEdit::Op::kRemoveEdge, first.dst, first.src, 0)}, "missing edge"},
      {{edge_op(GraphEdit::Op::kRemoveEdge, first.src, first.dst, 0),
        edge_op(GraphEdit::Op::kSetEdgeVolume, first.src, first.dst, 4)},
       "edge removed earlier in the list"},
      {{set_output(source, 0)}, "source set_output 0"},
      {{set_output(source, -8)}, "source set_output negative"},
      {{GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSource, -1, -1, -1, 0, "s"}},
       "added source without output"},
      {{GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, first.src, -1, -1, 0, ""},
        edge_op(GraphEdit::Op::kAddEdge, first.src, first.dst, 4)},
       "edge to a removed node"},
      {{edge_op(GraphEdit::Op::kAddEdge, first.src, first.dst, 0), set_output(source, 0)},
       "node failure is reported before an earlier edge failure"},
      {{set_output(sources.back(), 0), set_output(source, 0)},
       "the lowest failing node id is reported"},
      {{edge_op(GraphEdit::Op::kAddEdge, first.src, first.src, 4),
        edge_op(GraphEdit::Op::kSetEdgeVolume, first.src, first.dst, 0)},
       "the lowest failing edge id is reported"},
  };
  for (const auto& [edits, what] : cases) {
    EXPECT_FALSE(expect_same_outcome(base, edits, what)) << what << " must fail";
  }
}

TEST(GraphEditDifferential, ListsThatRepairThemselvesApply) {
  const TaskGraph base = multi_component_base(4);
  const auto n = static_cast<NodeId>(base.node_count());
  const Edge first = base.edge(0);
  const std::vector<std::pair<std::vector<GraphEdit>, const char*>> cases = {
      {{edge_op(GraphEdit::Op::kAddEdge, first.src, first.src, 0),
        edge_op(GraphEdit::Op::kRemoveEdge, first.src, first.src, 0)},
       "a bad edge removed again"},
      {{edge_op(GraphEdit::Op::kSetEdgeVolume, first.src, first.dst, 0),
        edge_op(GraphEdit::Op::kSetEdgeVolume, first.src, first.dst, first.volume)},
       "a zeroed volume restored"},
      {{GraphEdit{GraphEdit::Op::kAddNode, NodeKind::kSink, -1, -1, -1, 16, "k"},
        edge_op(GraphEdit::Op::kAddEdge, first.src, n, first.volume)},
       "an added sink drops its declared output"},
      {{set_output(first.dst, -3)}, "a negative declaration clears the record"},
      {{GraphEdit{GraphEdit::Op::kRemoveNode, NodeKind::kCompute, first.dst, -1, -1, 0, ""},
        set_output(0, 64)},
       "removal renumbers"},
  };
  for (const auto& [edits, what] : cases) {
    EXPECT_TRUE(expect_same_outcome(base, edits, what)) << what << " must apply";
  }
}

}  // namespace
}  // namespace sts
