#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/task_graph.hpp"
#include "support/rational.hpp"

namespace sts {

/// True iff the directed graph has no cycle.
[[nodiscard]] bool is_acyclic(const TaskGraph& graph);

/// Kahn topological order; throws std::invalid_argument if the graph is
/// cyclic. Ties are resolved by node id, making the order deterministic.
[[nodiscard]] std::vector<NodeId> topological_order(const TaskGraph& graph);

/// Kahn wave decomposition: `order` lists every node grouped into waves
/// (wave w = nodes whose longest dependency chain from a source — or from a
/// sink, when `reverse` — has exactly w hops), with wave w occupying
/// order[offsets[w] .. offsets[w+1]). Every dependency of a node lies in a
/// strictly earlier wave. Within each wave, nodes are sorted by id;
/// concatenating the waves therefore yields a valid (BFS-flavored)
/// topological order, though not the same order as topological_order (which
/// is globally min-id-first). The level and rank sweeps (node_levels,
/// bottom_levels, upward_ranks) walk this order: it is cheaper than the
/// min-id heap on large graphs. Throws std::invalid_argument on a cyclic
/// graph.
struct TopoWaves {
  std::vector<NodeId> order;          ///< all nodes, grouped wave by wave
  std::vector<std::size_t> offsets;   ///< wave w = order[offsets[w], offsets[w+1])

  [[nodiscard]] std::size_t wave_count() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

[[nodiscard]] TopoWaves topological_waves(const TaskGraph& graph, bool reverse = false);

/// Generalized node levels (paper Section 4.2.3):
///   L(v) = 1 if v has no parent, else max(R(v), 1) + max over parents L(u).
/// The level is the time for the last element leaving a source to reach and
/// be processed by v, accounting for upsampler fan-out; it is rational when
/// production rates are.
[[nodiscard]] std::vector<Rational> node_levels(const TaskGraph& graph);

/// As above, walking a given topological order of `graph` (every node once,
/// each after all its predecessors) instead of computing one. Levels are
/// maxima over predecessors, so every topological order yields the same
/// vector; the plain overload is this one over topological_waves(graph).
[[nodiscard]] std::vector<Rational> node_levels(const TaskGraph& graph,
                                                std::span<const NodeId> order);

/// L(G) = max over nodes of L(v).
[[nodiscard]] Rational graph_level(const TaskGraph& graph);

/// Weakly connected components of the buffer-split transform (Section 4.1):
/// every buffer node is split so that streaming cannot cross it. Because a
/// buffer is backing memory, each of its incident edges is an *independent*
/// stream (two consumers re-reading the same buffer are not rate-coupled),
/// so the split is per edge: components are formed by direct non-buffer
/// edges only, and a buffer-incident edge belongs to the component of its
/// non-buffer endpoint.
struct BufferSplitWccs {
  std::vector<std::int32_t> node_wcc;  ///< per node; -1 for buffer nodes
  std::int32_t count = 0;

  /// WCC the edge belongs to (that of its non-buffer endpoint; buffer-to-
  /// buffer edges are rejected by validation).
  [[nodiscard]] std::int32_t edge_wcc(const TaskGraph& graph, EdgeId e) const {
    const Edge& edge = graph.edge(e);
    const NodeId anchor = graph.kind(edge.src) == NodeKind::kBuffer ? edge.dst : edge.src;
    return node_wcc[static_cast<std::size_t>(anchor)];
  }
};

[[nodiscard]] BufferSplitWccs buffer_split_wccs(const TaskGraph& graph);

/// Checks the buffer placement rule of Section 4.2.3: the supernode DAG H
/// (one supernode per buffer-split WCC, edges from each WCC writing into a
/// buffer to each WCC reading from it) must be acyclic; a cycle would demand
/// unbounded "implicit" buffering.
[[nodiscard]] bool buffer_supernode_dag_is_acyclic(const TaskGraph& graph);

/// Bridge detection on an undirected multigraph given as an edge list over
/// `n` vertices. Returns one flag per edge: true iff the edge lies on an
/// undirected cycle (i.e., is NOT a bridge). Used by the deadlock analysis
/// of Section 6: only streaming edges on undirected cycles can deadlock.
[[nodiscard]] std::vector<bool> edges_on_undirected_cycles(
    std::size_t n, std::span<const std::pair<std::int32_t, std::int32_t>> edges);

}  // namespace sts
