#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/task_graph.hpp"
#include "support/rational.hpp"

namespace sts {

/// True iff the directed graph has no cycle: TaskGraph::acyclic(), the
/// verdict its edge table's one Kahn pass computed.
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

/// Root of v's class in a union-find forest over `parent`, a caller-owned
/// array in which parent[v] == v marks a root. Path halving: every node the
/// walk passes is re-hung under its grandparent, which keeps the trees flat
/// enough for near-linear total time without union by rank. This is the one
/// union-find of the library: the buffer-split components, the stream
/// contexts, the edge table's weak components (TaskGraph::weak_components)
/// and the generators' volume classes all run on it.
inline NodeId find_root(std::span<NodeId> parent, NodeId v) {
  // Node ids are non-negative, so the walk indexes with unsigned 32-bit
  // values: x86-64 zero-extends those for free, while a sign-extending load
  // lengthens every step of the pointer chase.
  auto x = static_cast<std::uint32_t>(v);
  while (static_cast<std::uint32_t>(parent[x]) != x) {
    parent[x] = parent[static_cast<std::uint32_t>(parent[x])];
    x = static_cast<std::uint32_t>(parent[x]);
  }
  return static_cast<NodeId>(x);
}

/// Merges the classes of `a` and `b` in the forest over `parent`, hanging
/// a's root under b's root (b's root is found first).
inline void unite(std::span<NodeId> parent, NodeId a, NodeId b) {
  const NodeId root = find_root(parent, b);
  parent[static_cast<std::uint32_t>(find_root(parent, a))] = root;
}

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

/// The supernode graph H of Section 4.2.3: one supernode per buffer-split
/// WCC, and for every buffer an edge from each WCC writing into it to each
/// WCC reading from it. A repeat of the edge a successor list ends with is
/// not stored (a buffer read by many nodes of one WCC yields one edge per
/// writer), which changes neither H's cycles nor its path weights.
struct SupernodeDag {
  std::vector<std::vector<std::int32_t>> succ;  ///< per supernode: its successors
  /// A writer-reader pair H cannot hold was skipped: a buffer writing into or
  /// read by a buffer, or a writer and reader in one WCC (a supernode
  /// feeding itself through memory).
  bool degenerate = false;

  /// The supernodes in a Kahn order (each after all its predecessors);
  /// shorter than the supernode count exactly when H has a cycle.
  [[nodiscard]] std::vector<std::int32_t> kahn_order() const;
};

[[nodiscard]] SupernodeDag buffer_supernode_dag(const TaskGraph& graph,
                                                const BufferSplitWccs& wccs);

/// Checks the buffer placement rule of Section 4.2.3: the supernode DAG H
/// must be acyclic and free of degenerate pairs; a cycle would demand
/// unbounded "implicit" buffering.
[[nodiscard]] bool buffer_supernode_dag_is_acyclic(const TaskGraph& graph);

/// Bridge detection on an undirected multigraph given as an edge list over
/// `n` vertices. Returns one flag per edge: true iff the edge lies on an
/// undirected cycle (i.e., is NOT a bridge). Used by the deadlock analysis
/// of Section 6: only streaming edges on undirected cycles can deadlock.
[[nodiscard]] std::vector<bool> edges_on_undirected_cycles(
    std::size_t n, std::span<const std::pair<std::int32_t, std::int32_t>> edges);

}  // namespace sts
