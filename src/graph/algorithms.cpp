#include "graph/algorithms.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace sts {

namespace {

std::vector<std::size_t> in_degrees(const TaskGraph& graph) {
  std::vector<std::size_t> deg(graph.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    deg[static_cast<std::size_t>(v)] = graph.in_degree(v);
  }
  return deg;
}

}  // namespace

bool is_acyclic(const TaskGraph& graph) { return graph.acyclic(); }

std::vector<NodeId> topological_order(const TaskGraph& graph) {
  auto deg = in_degrees(graph);
  // Min-heap on node id keeps the order deterministic and stable across runs.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (deg[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(graph.node_count());
  while (!ready.empty()) {
    const NodeId u = ready.top();
    ready.pop();
    order.push_back(u);
    for (const EdgeId e : graph.out_edges(u)) {
      const NodeId w = graph.edge(e).dst;
      if (--deg[static_cast<std::size_t>(w)] == 0) ready.push(w);
    }
  }
  if (order.size() != graph.node_count()) {
    throw std::invalid_argument("topological_order: graph contains a cycle");
  }
  return order;
}

TopoWaves topological_waves(const TaskGraph& graph, bool reverse) {
  const std::size_t n = graph.node_count();
  std::vector<std::size_t> deg(n);
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    deg[static_cast<std::size_t>(v)] = reverse ? graph.out_degree(v) : graph.in_degree(v);
  }
  TopoWaves waves;
  waves.order.reserve(n);
  waves.offsets.push_back(0);
  std::vector<NodeId> frontier;
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (deg[static_cast<std::size_t>(v)] == 0) frontier.push_back(v);
  }
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    // Frontiers are discovered from the previous wave in ascending order and
    // the initial frontier is built by an id sweep, but decrement order
    // within a wave is arbitrary, so sort for a deterministic layout.
    std::sort(frontier.begin(), frontier.end());
    waves.order.insert(waves.order.end(), frontier.begin(), frontier.end());
    waves.offsets.push_back(waves.order.size());
    next.clear();
    for (const NodeId u : frontier) {
      const auto edges = reverse ? graph.in_edges(u) : graph.out_edges(u);
      for (const EdgeId e : edges) {
        const NodeId w = reverse ? graph.edge(e).src : graph.edge(e).dst;
        if (--deg[static_cast<std::size_t>(w)] == 0) next.push_back(w);
      }
    }
    frontier.swap(next);
  }
  if (waves.order.size() != n) {
    throw std::invalid_argument("topological_waves: graph contains a cycle");
  }
  return waves;
}

std::vector<Rational> node_levels(const TaskGraph& graph) {
  return node_levels(graph, topological_waves(graph).order);
}

std::vector<Rational> node_levels(const TaskGraph& graph, std::span<const NodeId> order) {
  std::vector<Rational> level(graph.node_count(), Rational(0));
  for (const NodeId v : order) {
    const auto ins = graph.in_edges(v);
    if (ins.empty()) {
      level[static_cast<std::size_t>(v)] = Rational(1);
      continue;
    }
    Rational best(0);
    for (const EdgeId e : ins) {
      best = std::max(best, level[static_cast<std::size_t>(graph.edge(e).src)]);
    }
    const Rational step = std::max(graph.rate(v), Rational(1));
    level[static_cast<std::size_t>(v)] = best + step;
  }
  return level;
}

Rational graph_level(const TaskGraph& graph) {
  Rational best(0);
  for (const Rational& l : node_levels(graph)) best = std::max(best, l);
  return best;
}

BufferSplitWccs buffer_split_wccs(const TaskGraph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), NodeId{0});
  for (const Edge& edge : graph.edges()) {
    if (graph.kind(edge.src) != NodeKind::kBuffer && graph.kind(edge.dst) != NodeKind::kBuffer) {
      unite(parent, edge.src, edge.dst);
    }
  }
  BufferSplitWccs result;
  result.node_wcc.assign(n, -1);
  std::vector<std::int32_t> compact(n, -1);
  std::int32_t next = 0;
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (graph.kind(v) == NodeKind::kBuffer) continue;
    const auto root = static_cast<std::size_t>(find_root(parent, v));
    if (compact[root] < 0) compact[root] = next++;
    result.node_wcc[static_cast<std::size_t>(v)] = compact[root];
  }
  result.count = next;
  return result;
}

SupernodeDag buffer_supernode_dag(const TaskGraph& graph, const BufferSplitWccs& wccs) {
  SupernodeDag dag;
  dag.succ.resize(static_cast<std::size_t>(wccs.count));
  // node_wcc is -1 exactly at buffers, so it answers "is this a buffer?"
  // from the compact component array.
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    if (graph.kind(v) != NodeKind::kBuffer) continue;
    for (const EdgeId in : graph.in_edges(v)) {
      const auto tail = wccs.node_wcc[static_cast<std::size_t>(graph.edge(in).src)];
      if (tail < 0) {
        dag.degenerate = true;  // buffer chain
        continue;
      }
      std::vector<std::int32_t>& heads = dag.succ[static_cast<std::size_t>(tail)];
      for (const EdgeId out : graph.out_edges(v)) {
        const auto head = wccs.node_wcc[static_cast<std::size_t>(graph.edge(out).dst)];
        if (head < 0 || head == tail) {
          dag.degenerate = true;
          continue;
        }
        if (heads.empty() || heads.back() != head) heads.push_back(head);
      }
    }
  }
  return dag;
}

std::vector<std::int32_t> SupernodeDag::kahn_order() const {
  std::vector<std::size_t> deg(succ.size(), 0);
  for (const auto& heads : succ) {
    for (const auto w : heads) ++deg[static_cast<std::size_t>(w)];
  }
  // The order doubles as the queue: a supernode is appended once its last
  // predecessor is taken.
  std::vector<std::int32_t> order;
  order.reserve(succ.size());
  for (std::size_t c = 0; c < succ.size(); ++c) {
    if (deg[c] == 0) order.push_back(static_cast<std::int32_t>(c));
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const auto w : succ[static_cast<std::size_t>(order[i])]) {
      if (--deg[static_cast<std::size_t>(w)] == 0) order.push_back(w);
    }
  }
  return order;
}

bool buffer_supernode_dag_is_acyclic(const TaskGraph& graph) {
  const BufferSplitWccs wccs = buffer_split_wccs(graph);
  const SupernodeDag dag = buffer_supernode_dag(graph, wccs);
  return !dag.degenerate && dag.kahn_order().size() == static_cast<std::size_t>(wccs.count);
}

std::vector<bool> edges_on_undirected_cycles(
    std::size_t n, std::span<const std::pair<std::int32_t, std::int32_t>> edges) {
  // Iterative Tarjan bridge finding on the undirected multigraph. Parallel
  // edges are handled naturally: the second copy of a parallel edge is a
  // back edge, so both copies end up on a cycle.
  struct Half {
    std::int32_t to;
    std::int32_t edge;
  };
  // Adjacency in CSR form, filled in edge order, so each node lists its
  // half-edges in the order of the edges they belong to.
  std::vector<std::size_t> first(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++first[static_cast<std::size_t>(u) + 1];
    ++first[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t u = 0; u < n; ++u) first[u + 1] += first[u];
  std::vector<Half> adj(2 * edges.size());
  std::vector<std::size_t> cursor(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    adj[cursor[static_cast<std::size_t>(u)]++] = {v, static_cast<std::int32_t>(i)};
    adj[cursor[static_cast<std::size_t>(v)]++] = {u, static_cast<std::int32_t>(i)};
  }

  std::vector<bool> on_cycle(edges.size(), false);
  std::vector<std::int32_t> disc(n, -1);
  std::vector<std::int32_t> low(n, 0);
  std::int32_t timer = 0;

  struct Frame {
    std::int32_t node;
    std::int32_t parent_edge;
    std::size_t next_child = 0;  ///< index into adj
  };
  std::vector<Frame> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    stack.push_back({static_cast<std::int32_t>(root), -1, first[root]});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto u = static_cast<std::size_t>(frame.node);
      if (frame.next_child < first[u + 1]) {
        const Half half = adj[frame.next_child++];
        if (half.edge == frame.parent_edge) continue;
        const auto w = static_cast<std::size_t>(half.to);
        if (disc[w] == -1) {
          disc[w] = low[w] = timer++;
          stack.push_back({half.to, half.edge, first[w]});
        } else {
          // Back edge: lies on a cycle.
          low[u] = std::min(low[u], disc[w]);
          on_cycle[static_cast<std::size_t>(half.edge)] = true;
        }
      } else {
        const std::int32_t parent_edge = frame.parent_edge;  // frame dies with pop_back
        stack.pop_back();
        if (!stack.empty()) {
          Frame& parent = stack.back();
          const auto p = static_cast<std::size_t>(parent.node);
          low[p] = std::min(low[p], low[u]);
          // Tree edge (p -> u) is a bridge iff low[u] > disc[p].
          if (low[u] <= disc[p]) {
            on_cycle[static_cast<std::size_t>(parent_edge)] = true;
          }
        }
      }
    }
  }
  return on_cycle;
}

}  // namespace sts
