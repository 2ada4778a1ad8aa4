#include "core/work_depth.hpp"

#include <algorithm>
#include <vector>

#include "graph/algorithms.hpp"

namespace sts {

WorkDepth analyze_work_depth(const TaskGraph& graph) {
  WorkDepth result;
  result.work = graph.total_work();
  result.levels = graph_level(graph);
  result.streaming_depth = streaming_depth(graph);
  return result;
}

Rational streaming_depth(const TaskGraph& graph) {
  const std::vector<NodeId> order = topological_waves(graph).order;
  return streaming_depth(graph, order, node_levels(graph, order));
}

Rational streaming_depth(const TaskGraph& graph, std::span<const NodeId> order,
                         std::span<const Rational> levels) {
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (graph.kind(v) == NodeKind::kBuffer) return streaming_depth(graph, order);
  }
  const WeakComponents& components = graph.weak_components();
  const std::span<const NodeProfile> profile = graph.profiles();
  Rational deepest(0);
  for (std::int32_t c = 0; c < components.count; ++c) {
    Rational level(0);
    std::int64_t volume = 0;
    for (const NodeId v : components.nodes(c)) {
      const auto idx = static_cast<std::size_t>(v);
      level = std::max(level, levels[idx]);
      volume = std::max(volume, profile[idx].out_volume);
    }
    deepest = std::max(deepest, level + Rational(volume));
  }
  return deepest;
}

Rational streaming_depth(const TaskGraph& graph, std::span<const NodeId> order) {
  const std::size_t n = graph.node_count();
  const BufferSplitWccs wccs = buffer_split_wccs(graph);
  const auto wcc_count = static_cast<std::size_t>(wccs.count);

  // Per-WCC level of the buffer-split graph: consumers of a buffer restart
  // at level 1 (streaming cannot cross a buffer); every other node adds
  // max(R,1) above its in-WCC predecessors.
  std::vector<Rational> split_level(n, Rational(0));
  std::vector<Rational> wcc_level(wcc_count, Rational(0));
  std::vector<std::int64_t> wcc_max_vol(wcc_count, 0);

  for (const NodeId v : order) {
    const auto idx = static_cast<std::size_t>(v);
    if (graph.kind(v) == NodeKind::kBuffer) {
      // The head contributes its per-edge replay volume to each consumer's
      // component; it adds no level (a fresh source of that component).
      for (const EdgeId e : graph.out_edges(v)) {
        const auto wcc = wccs.node_wcc[static_cast<std::size_t>(graph.edge(e).dst)];
        if (wcc >= 0) {
          wcc_max_vol[static_cast<std::size_t>(wcc)] = std::max(
              wcc_max_vol[static_cast<std::size_t>(wcc)], graph.output_volume(v));
        }
      }
      continue;
    }

    Rational best(0);
    for (const EdgeId e : graph.in_edges(v)) {
      const NodeId u = graph.edge(e).src;
      const Rational contrib = graph.kind(u) == NodeKind::kBuffer
                                   ? Rational(1)
                                   : split_level[static_cast<std::size_t>(u)];
      best = std::max(best, contrib);
    }
    if (graph.in_degree(v) == 0) {
      split_level[idx] = Rational(1);
    } else {
      const Rational step = graph.kind(v) == NodeKind::kCompute
                                ? std::max(graph.rate(v), Rational(1))
                                : Rational(1);  // sinks
      split_level[idx] = best + step;
    }

    const auto wcc = wccs.node_wcc[idx];
    if (wcc >= 0) {
      wcc_level[static_cast<std::size_t>(wcc)] =
          std::max(wcc_level[static_cast<std::size_t>(wcc)], split_level[idx]);
      wcc_max_vol[static_cast<std::size_t>(wcc)] = std::max(
          wcc_max_vol[static_cast<std::size_t>(wcc)], graph.output_volume(v));
    }
  }

  // Supernode DAG H weighted by L(WCC) + maxO(WCC) per supernode
  // (Equation 4): the streaming depth bound is the heaviest path weight in H.
  std::vector<Rational> weight(wcc_count, Rational(0));
  for (std::size_t c = 0; c < wcc_count; ++c) {
    weight[c] = wcc_level[c] + Rational(wcc_max_vol[c]);
  }
  const SupernodeDag dag = buffer_supernode_dag(graph, wccs);
  std::vector<Rational> path(weight);
  Rational deepest(0);
  for (const auto u : dag.kahn_order()) {
    const auto from = static_cast<std::size_t>(u);
    deepest = std::max(deepest, path[from]);
    for (const auto w : dag.succ[from]) {
      const auto to = static_cast<std::size_t>(w);
      path[to] = std::max(path[to], path[from] + weight[to]);
    }
  }
  return deepest;
}

}  // namespace sts
