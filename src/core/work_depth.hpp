#pragma once

#include <cstdint>
#include <span>

#include "graph/task_graph.hpp"
#include "support/rational.hpp"

namespace sts {

/// Work and depth analysis of a canonical task graph (paper Section 4.2).
struct WorkDepth {
  /// T1: sum of W(v) = max(I,O) over PE-occupying nodes — the sequential
  /// execution time of the DAG on one processor.
  std::int64_t work = 0;

  /// T_s_inf: the streaming depth bound of Section 4.2.3 — per buffer-split
  /// WCC, L(G_wcc) + max_u O(u) (Equation 4), summed along the deepest path
  /// of the supernode DAG H. For graphs without buffer nodes this is
  /// L(G) + max O(u).
  Rational streaming_depth{0};

  /// Number of levels L(G) with the generalized level function.
  Rational levels{0};
};

[[nodiscard]] WorkDepth analyze_work_depth(const TaskGraph& graph);

/// T_s_inf only, without analyze_work_depth's graph_level walk. Computes a
/// topological order of `graph` and the node levels along it itself.
[[nodiscard]] Rational streaming_depth(const TaskGraph& graph);

/// As above over a given topological `order` of `graph` and the node levels
/// along it (node_levels(graph, order)); the bound is the same for every
/// topological order. On a graph without buffer nodes the buffer-split
/// levels are the node levels and the supernode DAG has no edges, so the
/// bound is the largest (max level + max O) over the graph's weak
/// components, read off `levels`; a graph with buffers takes the overload
/// below.
[[nodiscard]] Rational streaming_depth(const TaskGraph& graph, std::span<const NodeId> order,
                                       std::span<const Rational> levels);

/// The buffer-split analysis over a given topological `order`: per-WCC
/// split levels, then the heaviest path of the supernode DAG. Valid for
/// every graph.
[[nodiscard]] Rational streaming_depth(const TaskGraph& graph, std::span<const NodeId> order);

}  // namespace sts
