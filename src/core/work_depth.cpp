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
  return streaming_depth(graph, topological_order(graph));
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

  // Supernode DAG H: one node per WCC with weight L(WCC) + maxO(WCC)
  // (Equation 4); an edge per buffer from each writer WCC to each reader
  // WCC. The streaming depth bound is the heaviest path weight in H.
  std::vector<Rational> wcc_weight(wcc_count, Rational(0));
  for (std::size_t c = 0; c < wcc_count; ++c) {
    wcc_weight[c] = wcc_level[c] + Rational(wcc_max_vol[c]);
  }

  std::vector<std::vector<std::int32_t>> adj(wcc_count);
  std::vector<std::size_t> deg(wcc_count, 0);
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (graph.kind(v) != NodeKind::kBuffer) continue;
    for (const EdgeId in : graph.in_edges(v)) {
      const auto tail = wccs.node_wcc[static_cast<std::size_t>(graph.edge(in).src)];
      if (tail < 0) continue;
      for (const EdgeId out : graph.out_edges(v)) {
        const auto head = wccs.node_wcc[static_cast<std::size_t>(graph.edge(out).dst)];
        if (head < 0 || head == tail) continue;
        adj[static_cast<std::size_t>(tail)].push_back(head);
        ++deg[static_cast<std::size_t>(head)];
      }
    }
  }
  std::vector<Rational> path(wcc_weight);
  std::vector<std::int32_t> stack;
  for (std::size_t c = 0; c < wcc_count; ++c) {
    if (deg[c] == 0) stack.push_back(static_cast<std::int32_t>(c));
  }
  Rational deepest(0);
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    deepest = std::max(deepest, path[static_cast<std::size_t>(u)]);
    for (const auto w : adj[static_cast<std::size_t>(u)]) {
      path[static_cast<std::size_t>(w)] =
          std::max(path[static_cast<std::size_t>(w)],
                   path[static_cast<std::size_t>(u)] + wcc_weight[static_cast<std::size_t>(w)]);
      if (--deg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
    }
  }
  return deepest;
}

}  // namespace sts
