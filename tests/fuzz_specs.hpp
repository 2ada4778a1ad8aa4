#pragma once

// Shared random-topology shapes for the property/fuzz suites
// (test_fuzz.cpp, test_sim_engines.cpp, test_request.cpp and the
// differential suites): layered DAGs exercising corner shapes the
// hand-built workloads do not (diamonds, wide joins, deep skips), tie-heavy
// volumes, a helper that composes them into multi-component graphs, and two
// that re-route edges through buffer nodes.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/task_graph.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace sts::testing {

inline LayeredSpec fuzz_spec_for(int shape) {
  LayeredSpec spec;
  switch (shape) {
    case 0:  // deep and narrow
      spec.layers = 12;
      spec.width = 3;
      spec.edge_probability = 0.2;
      break;
    case 1:  // shallow and wide
      spec.layers = 4;
      spec.width = 12;
      spec.edge_probability = 0.15;
      break;
    case 2:  // dense with long skips
      spec.layers = 7;
      spec.width = 6;
      spec.edge_probability = 0.4;
      spec.max_skip = 4;
      break;
    default:  // sparse default
      break;
  }
  return spec;
}

/// Appends `part` as a disjoint component, names and declarations included;
/// node v of `part` is named `prefix` followed by v.
inline void append_component(TaskGraph& graph, const TaskGraph& part, const std::string& prefix) {
  const auto offset = static_cast<NodeId>(graph.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < part.node_count(); ++v) {
    const std::string name = prefix + std::to_string(v);
    NodeId added = -1;
    switch (part.kind(v)) {
      case NodeKind::kSource:
        added = graph.add_source(part.declared_output(v), name);
        break;
      case NodeKind::kCompute:
        added = graph.add_compute(name);
        break;
      case NodeKind::kBuffer:
        added = graph.add_buffer(name);
        break;
      case NodeKind::kSink:
        added = graph.add_sink(name);
        break;
    }
    if (part.kind(v) != NodeKind::kSource && part.declared_output(v) > 0) {
      graph.declare_output(added, part.declared_output(v));
    }
  }
  for (const Edge& edge : part.edges()) {
    graph.add_edge(offset + edge.src, offset + edge.dst, edge.volume);
  }
}

/// Few distinct volumes on even seeds, so (level, volume) ties, which only
/// the canonical rank breaks, are common; the generators' default range on
/// odd seeds.
inline VolumeDistribution volumes_for(std::uint64_t seed) {
  return seed % 2 == 0 ? VolumeDistribution{4, 5} : VolumeDistribution{};
}

/// The nodes of `graph` with their ids, kinds and declared outputs, and no
/// edges.
inline TaskGraph copy_nodes(const TaskGraph& graph) {
  TaskGraph out;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    switch (graph.kind(v)) {
      case NodeKind::kSource: (void)out.add_source(graph.declared_output(v)); break;
      case NodeKind::kCompute: (void)out.add_compute(); break;
      case NodeKind::kBuffer: (void)out.add_buffer(); break;
      case NodeKind::kSink: (void)out.add_sink(); break;
    }
    if (graph.kind(v) != NodeKind::kSource && graph.declared_output(v) > 0) {
      out.declare_output(v, graph.declared_output(v));
    }
  }
  return out;
}

/// A copy of `graph` in which about a third of the producers send most of
/// their out-edges through a fresh buffer node (producer -> buffer ->
/// consumer, volumes kept), so readiness also propagates through absorbed
/// buffers and a consumer can have both buffered and direct producers. Most
/// of these graphs fail validate(): a buffer whose readers stay connected to
/// its writer by direct edges closes a cycle over buffer-split components.
inline TaskGraph reroute_through_buffers(const TaskGraph& graph, std::uint64_t seed) {
  Prng rng(seed);
  const std::size_t n = graph.node_count();
  TaskGraph out = copy_nodes(graph);
  // Each producer is picked with probability 1/3; three in four of a
  // picked producer's out-edges then go through its buffer, created on the
  // first of them.
  std::vector<bool> picked(n, false);
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    picked[static_cast<std::size_t>(v)] =
        graph.kind(v) != NodeKind::kBuffer && rng.uniform_int(0, 2) == 0;
  }
  std::vector<NodeId> buffer_of(n, kInvalidNode);
  for (const Edge& edge : graph.edges()) {
    const auto src = static_cast<std::size_t>(edge.src);
    if (!picked[src] || rng.uniform_int(0, 3) == 0) {
      (void)out.add_edge(edge.src, edge.dst, edge.volume);
      continue;
    }
    if (buffer_of[src] == kInvalidNode) {
      buffer_of[src] = out.add_buffer();
      (void)out.add_edge(edge.src, buffer_of[src], edge.volume);
    }
    (void)out.add_edge(buffer_of[src], edge.dst, edge.volume);
  }
  return out;
}

/// A copy of `graph` cut at one topological depth drawn from `seed` (depth:
/// the node's wave in topological_waves): every edge from above the cut to
/// below it leaves its producer through that producer's one buffer node
/// (producer -> buffer -> consumer, volumes kept). No edge then crosses the
/// cut directly, so each buffer-split component lies on one side of it and
/// every buffer leads from a component above to one below: the supernode DAG
/// is acyclic, and the copy validates whenever `graph` does.
inline TaskGraph cut_through_buffers(const TaskGraph& graph, std::uint64_t seed) {
  const std::size_t n = graph.node_count();
  const TopoWaves waves = topological_waves(graph);
  std::vector<std::size_t> depth(n, 0);
  for (std::size_t w = 0; w < waves.wave_count(); ++w) {
    for (std::size_t i = waves.offsets[w]; i < waves.offsets[w + 1]; ++i) {
      depth[static_cast<std::size_t>(waves.order[i])] = w;
    }
  }
  Prng rng(seed);
  const auto wave_count = static_cast<std::int64_t>(waves.wave_count());
  const auto cut =
      static_cast<std::size_t>(wave_count < 2 ? 1 : rng.uniform_int(1, wave_count - 1));
  TaskGraph out = copy_nodes(graph);
  std::vector<NodeId> buffer_of(n, kInvalidNode);
  for (const Edge& edge : graph.edges()) {
    const auto src = static_cast<std::size_t>(edge.src);
    const bool crosses = depth[src] < cut && depth[static_cast<std::size_t>(edge.dst)] >= cut;
    if (!crosses || graph.kind(edge.src) == NodeKind::kBuffer ||
        graph.kind(edge.dst) == NodeKind::kBuffer) {
      (void)out.add_edge(edge.src, edge.dst, edge.volume);
      continue;
    }
    if (buffer_of[src] == kInvalidNode) {
      buffer_of[src] = out.add_buffer();
      (void)out.add_edge(edge.src, buffer_of[src], edge.volume);
    }
    (void)out.add_edge(buffer_of[src], edge.dst, edge.volume);
  }
  return out;
}

}  // namespace sts::testing
