#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "support/json.hpp"

namespace sts {

/// One mutation of a canonical task graph, expressed against the node ids of
/// a base graph. Edits in a list apply in order; `kAddNode` extends the id
/// space (the first added node gets id == base node_count, the next one
/// base+1, ...), so later edits can wire up nodes added earlier. Node
/// removal drops every incident edge; surviving nodes are renumbered densely
/// in ascending order only once, when the whole list is materialized.
///
/// JSON shape (ScheduleRequest `edits` array elements):
///
///     {"op": "add_node", "kind": "compute", "output": 16, "name": "x"}
///     {"op": "remove_node", "node": 5}
///     {"op": "add_edge", "src": 1, "dst": 2, "volume": 16}
///     {"op": "remove_edge", "src": 1, "dst": 2}
///     {"op": "set_output", "node": 3, "volume": 32}
///     {"op": "set_edge_volume", "src": 1, "dst": 2, "volume": 8}
///
/// `remove_edge` / `set_edge_volume` address the first not-yet-removed edge
/// with the given endpoints, in insertion order (relevant only to
/// multigraphs). `set_output` (re)declares the output volume record — the
/// retune knob for sources, exits, and buffers; it must stay consistent with
/// out-edge volumes, which materialization's validate() enforces later.
struct GraphEdit {
  enum class Op : std::uint8_t {
    kAddNode,
    kRemoveNode,
    kAddEdge,
    kRemoveEdge,
    kSetOutput,
    kSetEdgeVolume,
  };

  Op op = Op::kAddNode;
  NodeKind kind = NodeKind::kCompute;  ///< kAddNode only
  NodeId node = -1;                    ///< kRemoveNode / kSetOutput
  NodeId src = -1;                     ///< edge ops
  NodeId dst = -1;                     ///< edge ops
  std::int64_t volume = 0;             ///< add_edge/set_edge_volume; declared
                                       ///< output for add_node/set_output
  std::string name;                    ///< kAddNode only

  [[nodiscard]] bool operator==(const GraphEdit&) const = default;
};

/// Appends the JSON object for one edit (shape above) to `out`.
void append_graph_edit_json(std::string& out, const GraphEdit& edit);

/// Parses one edit object. Throws std::invalid_argument on unknown ops,
/// unknown members, or members that do not belong to the op (strict, same
/// policy as the request envelope).
[[nodiscard]] GraphEdit graph_edit_from_json(const JsonValue& json);

/// Applies the edit list to `base` and returns the materialized graph:
/// surviving base nodes first (ascending id), then surviving added nodes, all
/// renumbered densely; surviving base edges keep their relative insertion
/// order and added edges append in apply order — so an edit list that undoes
/// itself reproduces the base graph's canonical_fingerprint exactly. Throws
/// std::invalid_argument when an edit references an out-of-range or removed
/// node, removes a nonexistent edge, or gives a non-positive volume where one
/// is required. The result is NOT validated here; scheduling validates it.
///
/// Cost: one copy of the base's node records, patched in place. A list of
/// set_output edits (or an empty one) changes neither the edges nor the
/// node count, so the result shares the base's edge table: its CSR,
/// acyclicity verdict and weak components are derived once per base
/// topology, not once per delta. Any other list copies the edge array into
/// a table of its own; each edge lookup and each node removal scans it
/// once, and the dense renumbering pass runs only when the list removes
/// something. The base's derived state is never read here, so it is never
/// built here either.
[[nodiscard]] TaskGraph apply_graph_edits(const TaskGraph& base,
                                          std::span<const GraphEdit> edits);

}  // namespace sts
