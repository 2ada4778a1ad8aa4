#include "graph/graph_edit.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "support/text.hpp"

namespace sts {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("graph edit: " + what);
}

std::string_view op_name(GraphEdit::Op op) {
  switch (op) {
    case GraphEdit::Op::kAddNode: return "add_node";
    case GraphEdit::Op::kRemoveNode: return "remove_node";
    case GraphEdit::Op::kAddEdge: return "add_edge";
    case GraphEdit::Op::kRemoveEdge: return "remove_edge";
    case GraphEdit::Op::kSetOutput: return "set_output";
    case GraphEdit::Op::kSetEdgeVolume: return "set_edge_volume";
  }
  fail("unknown op enum");
}

std::string_view kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource: return "source";
    case NodeKind::kSink: return "sink";
    case NodeKind::kCompute: return "compute";
    case NodeKind::kBuffer: return "buffer";
  }
  fail("unknown node kind enum");
}

NodeKind kind_from(std::string_view token) {
  if (token == "source") return NodeKind::kSource;
  if (token == "sink") return NodeKind::kSink;
  if (token == "compute") return NodeKind::kCompute;
  if (token == "buffer") return NodeKind::kBuffer;
  fail("unknown node kind '" + std::string(token) + "'");
}

NodeId node_from(const JsonValue& json, std::string_view key) {
  const std::int64_t value = json.at(key).as_int();
  if (value < 0 || value > INT32_MAX) {
    fail("member '" + std::string(key) + "' out of NodeId range");
  }
  return static_cast<NodeId>(value);
}

}  // namespace

void append_graph_edit_json(std::string& out, const GraphEdit& edit) {
  out += "{\"op\": \"";
  out += op_name(edit.op);
  out += '"';
  switch (edit.op) {
    case GraphEdit::Op::kAddNode:
      out += ", \"kind\": \"";
      out += kind_name(edit.kind);
      out += '"';
      if (edit.volume != 0) {
        out += ", \"output\": ";
        append_number(out, edit.volume);
      }
      if (!edit.name.empty()) {
        out += ", \"name\": ";
        append_json_quoted(out, edit.name);
      }
      break;
    case GraphEdit::Op::kRemoveNode:
      out += ", \"node\": ";
      append_number(out, edit.node);
      break;
    case GraphEdit::Op::kAddEdge:
    case GraphEdit::Op::kSetEdgeVolume:
      out += ", \"src\": ";
      append_number(out, edit.src);
      out += ", \"dst\": ";
      append_number(out, edit.dst);
      out += ", \"volume\": ";
      append_number(out, edit.volume);
      break;
    case GraphEdit::Op::kRemoveEdge:
      out += ", \"src\": ";
      append_number(out, edit.src);
      out += ", \"dst\": ";
      append_number(out, edit.dst);
      break;
    case GraphEdit::Op::kSetOutput:
      out += ", \"node\": ";
      append_number(out, edit.node);
      out += ", \"volume\": ";
      append_number(out, edit.volume);
      break;
  }
  out += '}';
}

GraphEdit graph_edit_from_json(const JsonValue& json) {
  GraphEdit edit;
  const std::string_view op = json.at("op").as_string();
  if (op == "add_node") {
    reject_unknown_members(json, {"op", "kind", "output", "name"}, "graph edit", "add_node");
    edit.op = GraphEdit::Op::kAddNode;
    edit.kind = kind_from(json.at("kind").as_string());
    if (const JsonValue* output = json.find("output")) {
      edit.volume = output->as_int();
      if (edit.volume <= 0) fail("add_node output must be positive");
    }
    if (const JsonValue* name = json.find("name")) edit.name = name->as_string();
  } else if (op == "remove_node") {
    reject_unknown_members(json, {"op", "node"}, "graph edit", "remove_node");
    edit.op = GraphEdit::Op::kRemoveNode;
    edit.node = node_from(json, "node");
  } else if (op == "add_edge") {
    reject_unknown_members(json, {"op", "src", "dst", "volume"}, "graph edit", "add_edge");
    edit.op = GraphEdit::Op::kAddEdge;
    edit.src = node_from(json, "src");
    edit.dst = node_from(json, "dst");
    edit.volume = json.at("volume").as_int();
    if (edit.volume <= 0) fail("add_edge volume must be positive");
  } else if (op == "remove_edge") {
    reject_unknown_members(json, {"op", "src", "dst"}, "graph edit", "remove_edge");
    edit.op = GraphEdit::Op::kRemoveEdge;
    edit.src = node_from(json, "src");
    edit.dst = node_from(json, "dst");
  } else if (op == "set_output") {
    reject_unknown_members(json, {"op", "node", "volume"}, "graph edit", "set_output");
    edit.op = GraphEdit::Op::kSetOutput;
    edit.node = node_from(json, "node");
    edit.volume = json.at("volume").as_int();
    if (edit.volume <= 0) fail("set_output volume must be positive");
  } else if (op == "set_edge_volume") {
    reject_unknown_members(json, {"op", "src", "dst", "volume"}, "graph edit",
                           "set_edge_volume");
    edit.op = GraphEdit::Op::kSetEdgeVolume;
    edit.src = node_from(json, "src");
    edit.dst = node_from(json, "dst");
    edit.volume = json.at("volume").as_int();
    if (edit.volume <= 0) fail("set_edge_volume volume must be positive");
  } else {
    fail("unknown op '" + std::string(op) + "'");
  }
  return edit;
}

TaskGraph apply_graph_edits(const TaskGraph& base, std::span<const GraphEdit> edits) {
  using NodeRec = TaskGraph::NodeRec;
  const std::span<const Edge> base_edge_span = base.edges();
  const std::size_t base_edges = base_edge_span.size();
  // A list of set_output retunes changes neither the edges nor the node
  // count, so the result shares the base's edge table: its CSR, verdict and
  // components are the base's. Any other list gets a table of its own.
  const bool retune_only = std::all_of(edits.begin(), edits.end(), [](const GraphEdit& edit) {
    return edit.op == GraphEdit::Op::kSetOutput;
  });

  // Flat copies of the base records, patched in place below. Sinks never
  // carry a declared output in a materialized graph.
  TaskGraph out;
  out.nodes_.reserve(base.nodes_.size() + edits.size());
  for (const NodeRec& rec : base.nodes_) {
    out.nodes_.push_back(rec);
    if (rec.kind == NodeKind::kSink) out.nodes_.back().declared_output = 0;
  }
  out.names_ = base.names_;
  std::vector<Edge> edges;
  if (!retune_only) {
    edges.reserve(base_edges + edits.size());
    edges.assign(base_edge_span.begin(), base_edge_span.end());
  }
  std::vector<NodeRec>& nodes = out.nodes_;
  std::vector<std::string>& names = out.names_;

  // Removal flags, allocated by the first removal; an index past the end is
  // alive. Without a removal the copies need no renumbering at all.
  std::vector<char> node_dead;
  std::vector<char> edge_dead;
  const auto dead = [](const std::vector<char>& flags, std::size_t i) {
    return i < flags.size() && flags[i] != 0;
  };
  const auto kill = [](std::vector<char>& flags, std::size_t i, std::size_t size) {
    if (flags.size() < size) flags.resize(size, 0);
    flags[i] = 1;
  };
  // Records an edit may have left non-canonical, re-checked once at the end
  // in id order: set_output targets and added nodes, edges whose volume was
  // set. Added edges (ids >= base_edges) are checked wholesale.
  std::vector<NodeId> patched_nodes;
  std::vector<EdgeId> patched_edges;

  const auto check_alive = [&](NodeId v, const char* role) {
    if (v < 0 || static_cast<std::size_t>(v) >= nodes.size()) {
      fail(std::string(role) + " node " + std::to_string(v) + " out of range");
    }
    if (dead(node_dead, static_cast<std::size_t>(v))) {
      fail(std::string(role) + " node " + std::to_string(v) + " was removed");
    }
  };
  // First not-yet-removed edge with the given endpoints, in insertion order.
  const auto find_edge = [&](NodeId src, NodeId dst) -> EdgeId {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].src == src && edges[e].dst == dst && !dead(edge_dead, e)) {
        return static_cast<EdgeId>(e);
      }
    }
    return -1;
  };

  for (const GraphEdit& edit : edits) {
    switch (edit.op) {
      case GraphEdit::Op::kAddNode:
        if (edit.kind == NodeKind::kSource && edit.volume <= 0) {
          fail("add_node source requires a positive output");
        }
        patched_nodes.push_back(static_cast<NodeId>(nodes.size()));
        nodes.push_back(NodeRec{edit.kind, edit.volume});
        if (!edit.name.empty()) {
          names.resize(nodes.size());
          names.back() = edit.name;
        }
        break;
      case GraphEdit::Op::kRemoveNode:
        check_alive(edit.node, "remove_node");
        kill(node_dead, static_cast<std::size_t>(edit.node), nodes.size());
        for (std::size_t e = 0; e < edges.size(); ++e) {
          if (edges[e].src == edit.node || edges[e].dst == edit.node) {
            kill(edge_dead, e, edges.size());
          }
        }
        break;
      case GraphEdit::Op::kAddEdge:
        check_alive(edit.src, "add_edge src");
        check_alive(edit.dst, "add_edge dst");
        edges.push_back(Edge{edit.src, edit.dst, edit.volume});
        break;
      case GraphEdit::Op::kRemoveEdge: {
        check_alive(edit.src, "remove_edge src");
        check_alive(edit.dst, "remove_edge dst");
        const EdgeId e = find_edge(edit.src, edit.dst);
        if (e < 0) {
          fail("remove_edge: no edge " + std::to_string(edit.src) + " -> " +
               std::to_string(edit.dst));
        }
        kill(edge_dead, static_cast<std::size_t>(e), edges.size());
        break;
      }
      case GraphEdit::Op::kSetOutput:
        check_alive(edit.node, "set_output");
        nodes[static_cast<std::size_t>(edit.node)].declared_output = edit.volume;
        patched_nodes.push_back(edit.node);
        break;
      case GraphEdit::Op::kSetEdgeVolume: {
        check_alive(edit.src, "set_edge_volume src");
        check_alive(edit.dst, "set_edge_volume dst");
        const EdgeId e = find_edge(edit.src, edit.dst);
        if (e < 0) {
          fail("set_edge_volume: no edge " + std::to_string(edit.src) + " -> " +
               std::to_string(edit.dst));
        }
        edges[static_cast<std::size_t>(e)].volume = edit.volume;
        if (static_cast<std::size_t>(e) < base_edges) patched_edges.push_back(e);
        break;
      }
    }
  }

  // Patched records, lowest id first (the order the first failure is
  // reported in): a source must keep a positive output; sinks and
  // non-positive declarations carry no output record.
  std::sort(patched_nodes.begin(), patched_nodes.end());
  for (const NodeId v : patched_nodes) {
    if (dead(node_dead, static_cast<std::size_t>(v))) continue;
    NodeRec& rec = nodes[static_cast<std::size_t>(v)];
    if (rec.kind == NodeKind::kSource && rec.declared_output <= 0) {
      fail("node " + std::to_string(v) + ": source lost its declared output");
    }
    if (rec.kind == NodeKind::kSink || rec.declared_output < 0) rec.declared_output = 0;
  }
  std::sort(patched_edges.begin(), patched_edges.end());
  for (std::size_t e = base_edges; e < edges.size(); ++e) {
    patched_edges.push_back(static_cast<EdgeId>(e));
  }
  for (const EdgeId e : patched_edges) {
    if (dead(edge_dead, static_cast<std::size_t>(e))) continue;
    const Edge& edge = edges[static_cast<std::size_t>(e)];
    // The same checks (and messages) as TaskGraph::add_edge.
    if (edge.volume <= 0) throw std::invalid_argument("add_edge: volume must be > 0");
    if (edge.src == edge.dst) throw std::invalid_argument("add_edge: self loop");
  }

  // Dense renumbering, only when something was removed: survivors keep
  // their relative order, so an undo list round-trips exactly.
  if (!node_dead.empty() || !edge_dead.empty()) {
    std::vector<NodeId> remap(nodes.size(), kInvalidNode);
    std::size_t kept = 0;
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      if (dead(node_dead, v)) continue;
      remap[v] = static_cast<NodeId>(kept);
      if (kept != v) {
        nodes[kept] = nodes[v];
        if (kept < names.size()) names[kept] = v < names.size() ? std::move(names[v]) : "";
      }
      ++kept;
    }
    nodes.resize(kept);
    names.resize(std::min(names.size(), kept));
    kept = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (dead(edge_dead, e)) continue;
      const Edge edge = edges[e];
      edges[kept++] = Edge{remap[static_cast<std::size_t>(edge.src)],
                           remap[static_cast<std::size_t>(edge.dst)], edge.volume};
    }
    edges.resize(kept);
  }
  if (retune_only) {
    out.table_ = base.table_;
  } else {
    out.table_ = std::make_shared<TaskGraph::EdgeTable>();
    out.table_->nodes = nodes.size();
    out.table_->edges = std::move(edges);
  }
  return out;
}

}  // namespace sts
