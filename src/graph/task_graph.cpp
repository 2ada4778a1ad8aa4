#include "graph/task_graph.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace sts {

const char* to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kSource: return "source";
    case NodeKind::kSink: return "sink";
    case NodeKind::kCompute: return "compute";
    case NodeKind::kBuffer: return "buffer";
  }
  return "?";
}

const std::string TaskGraph::kUnnamed;

TaskGraph::EdgeTable& TaskGraph::detach_edge_table() {
  if (table_ == nullptr) {
    table_ = std::make_shared<EdgeTable>();
  } else {
    auto fresh = std::make_shared<EdgeTable>();
    fresh->nodes = table_->nodes;
    // A table no other graph reads gives its edges up; a shared one keeps
    // them for its other readers.
    if (table_.use_count() == 1) {
      fresh->edges = std::move(table_->edges);
    } else {
      fresh->edges = table_->edges;
    }
    table_ = std::move(fresh);
  }
  return *table_;
}

void TaskGraph::reserve(std::size_t nodes, std::size_t edges) {
  nodes_.reserve(nodes);
  if (!names_.empty()) names_.reserve(nodes);
  own_edge_table().edges.reserve(edges);
}

NodeId TaskGraph::add_node(NodeKind kind, std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRec{kind, 0});
  if (!name.empty()) {
    // The side array appears with the first name, with room for every node
    // reserved so far.
    if (names_.empty()) names_.reserve(nodes_.capacity());
    names_.resize(nodes_.size() - 1);
    names_.push_back(std::move(name));
  }
  ++own_edge_table().nodes;
  profiles_ready_.store(false, std::memory_order_relaxed);
  return id;
}

NodeId TaskGraph::add_source(std::int64_t output_volume, std::string name) {
  if (output_volume <= 0) throw std::invalid_argument("add_source: output volume must be > 0");
  const NodeId v = add_node(NodeKind::kSource, std::move(name));
  nodes_[static_cast<std::size_t>(v)].declared_output = output_volume;
  return v;
}

NodeId TaskGraph::add_compute(std::string name) {
  return add_node(NodeKind::kCompute, std::move(name));
}

NodeId TaskGraph::add_buffer(std::string name) {
  return add_node(NodeKind::kBuffer, std::move(name));
}

NodeId TaskGraph::add_sink(std::string name) { return add_node(NodeKind::kSink, std::move(name)); }

void TaskGraph::declare_output(NodeId v, std::int64_t output_volume) {
  check_node(v);
  if (output_volume <= 0) throw std::invalid_argument("declare_output: volume must be > 0");
  nodes_[static_cast<std::size_t>(v)].declared_output = output_volume;
  profiles_ready_.store(false, std::memory_order_relaxed);
}

EdgeId TaskGraph::add_edge(NodeId src, NodeId dst, std::int64_t volume) {
  check_node(src);
  check_node(dst);
  if (volume <= 0) throw std::invalid_argument("add_edge: volume must be > 0");
  if (src == dst) throw std::invalid_argument("add_edge: self loop");
  std::vector<Edge>& edges = own_edge_table().edges;
  const auto id = static_cast<EdgeId>(edges.size());
  edges.push_back(Edge{src, dst, volume});
  profiles_ready_.store(false, std::memory_order_relaxed);
  return id;
}

void TaskGraph::check_node(NodeId v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= nodes_.size()) {
    throw std::out_of_range("TaskGraph: invalid node id " + std::to_string(v));
  }
}

const WeakComponents& TaskGraph::weak_components() const {
  static const WeakComponents kNone{0, {}, {}, {0}};
  return table_ == nullptr ? kNone : table_->derived().components;
}

void TaskGraph::EdgeTable::build() const {
  // Serialize the one build so threads sharing a table (copies of one
  // graph, or the ScheduleCache scheduling path) cannot race on the derived
  // arrays; the release store at the end publishes them to acquire loads in
  // derived().
  const MutexLock lock(build_mutex_);
  if (ready_.load(std::memory_order_relaxed)) return;  // lost the race

  const std::size_t n = nodes;
  const std::size_t m = edges.size();
  Derived& d = derived_;

  // Counting sort of edge ids into flat per-node spans. Iterating edges in
  // id order keeps each span in edge-insertion order.
  d.in_off.assign(n + 1, 0);
  d.out_off.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++d.in_off[static_cast<std::size_t>(e.dst) + 1];
    ++d.out_off[static_cast<std::size_t>(e.src) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    d.in_off[i + 1] += d.in_off[i];
    d.out_off[i + 1] += d.out_off[i];
  }
  d.in_csr.resize(m);
  d.out_csr.resize(m);
  std::vector<std::int32_t> in_cursor(d.in_off.begin(), d.in_off.end() - 1);
  std::vector<std::int32_t> out_cursor(d.out_off.begin(), d.out_off.end() - 1);
  for (EdgeId e = 0; static_cast<std::size_t>(e) < m; ++e) {
    const Edge& edge = edges[static_cast<std::size_t>(e)];
    d.in_csr[static_cast<std::size_t>(in_cursor[static_cast<std::size_t>(edge.dst)]++)] = e;
    d.out_csr[static_cast<std::size_t>(out_cursor[static_cast<std::size_t>(edge.src)]++)] = e;
  }

  // The acyclicity verdict: one Kahn pass, which takes every node exactly
  // when no directed cycle exists. in_cursor now holds each node's in-span
  // end, so cursor - offset counts its unconsumed in-edges.
  std::vector<std::int32_t>& pending = in_cursor;
  std::vector<NodeId> stack;
  for (std::size_t v = 0; v < n; ++v) {
    pending[v] -= d.in_off[v];
    if (pending[v] == 0) stack.push_back(static_cast<NodeId>(v));
  }
  std::size_t taken = 0;
  while (!stack.empty()) {
    const auto u = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    ++taken;
    for (auto i = d.out_off[u]; i < d.out_off[u + 1]; ++i) {
      const NodeId w = edges[static_cast<std::size_t>(d.out_csr[static_cast<std::size_t>(i)])].dst;
      if (--pending[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
    }
  }
  d.acyclic = taken == n;

  // Weak components: one union-find pass over every edge, then labels in
  // order of each component's lowest member id (the ascending scan reaches
  // a root's first member before any other) and the members grouped by a
  // counting sort that keeps ascending ids within each group.
  WeakComponents& wc = d.components;
  std::vector<NodeId>& parent = out_cursor;
  std::iota(parent.begin(), parent.end(), NodeId{0});
  for (const Edge& edge : edges) unite(parent, edge.dst, edge.src);
  wc.label.assign(n, -1);
  std::int32_t count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = static_cast<std::size_t>(find_root(parent, static_cast<NodeId>(v)));
    if (wc.label[r] < 0) wc.label[r] = count++;
    wc.label[v] = wc.label[r];
  }
  wc.count = count;
  wc.offsets.assign(static_cast<std::size_t>(count) + 1, 0);
  for (const std::int32_t c : wc.label) ++wc.offsets[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < static_cast<std::size_t>(count); ++c) {
    wc.offsets[c + 1] += wc.offsets[c];
  }
  wc.members.resize(n);
  std::vector<std::size_t> cursor(wc.offsets.begin(), wc.offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    wc.members[cursor[static_cast<std::size_t>(wc.label[v])]++] = static_cast<NodeId>(v);
  }
  ready_.store(true, std::memory_order_release);
}

void TaskGraph::build_profiles() const {
  // Same protocol as EdgeTable::build: serialized builders, a release store
  // publishing the table to acquire loads in profiles().
  const MutexLock lock(profiles_mutex_);
  if (profiles_ready_.load(std::memory_order_relaxed)) return;  // lost the race

  const std::size_t n = nodes_.size();
  profile_.assign(n, NodeProfile{});
  if (n > 0) {
    const EdgeTable::Derived& d = table_->derived();
    const std::vector<Edge>& edges = table_->edges;
    for (std::size_t idx = 0; idx < n; ++idx) {
      NodeProfile& p = profile_[idx];
      const NodeRec& rec = nodes_[idx];
      if (d.in_off[idx + 1] > d.in_off[idx]) {
        p.in_volume = edges[static_cast<std::size_t>(d.in_csr[static_cast<std::size_t>(
                                d.in_off[idx])])]
                          .volume;
      }
      if (rec.kind != NodeKind::kSink) {
        if (d.out_off[idx + 1] > d.out_off[idx]) {
          p.out_volume = edges[static_cast<std::size_t>(d.out_csr[static_cast<std::size_t>(
                                   d.out_off[idx])])]
                             .volume;
        } else {
          p.out_volume = rec.declared_output;
        }
      }
      p.work = rec.kind == NodeKind::kBuffer ? 0 : std::max(p.in_volume, p.out_volume);
      if (p.in_volume > 0) {
        const std::int64_t g = std::gcd(p.out_volume, p.in_volume);
        p.rate_num = g == 0 ? 0 : p.out_volume / g;
        p.rate_den = g == 0 ? 1 : p.in_volume / g;
      }
    }
  }
  profiles_ready_.store(true, std::memory_order_release);
}

std::int64_t TaskGraph::input_volume(NodeId v) const {
  check_node(v);
  return profiles()[static_cast<std::size_t>(v)].in_volume;
}

std::int64_t TaskGraph::output_volume(NodeId v) const {
  check_node(v);
  return profiles()[static_cast<std::size_t>(v)].out_volume;
}

Rational TaskGraph::rate(NodeId v) const {
  check_node(v);
  const NodeProfile& p = profiles()[static_cast<std::size_t>(v)];
  if (p.in_volume == 0) {
    throw std::logic_error("rate(): node " + std::to_string(v) + " has no inputs (source?)");
  }
  return Rational(p.rate_num, p.rate_den);
}

std::int64_t TaskGraph::work(NodeId v) const {
  check_node(v);
  return profiles()[static_cast<std::size_t>(v)].work;
}

std::int64_t TaskGraph::total_work() const {
  const std::span<const NodeProfile> profile = profiles();
  std::int64_t sum = 0;
  for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
    if (nodes_[idx].kind != NodeKind::kBuffer) sum += profile[idx].work;
  }
  return sum;
}

std::vector<std::string> TaskGraph::validate() const {
  std::vector<std::string> issues;
  const auto complain = [&issues](NodeId v, const std::string& what) {
    issues.push_back("node " + std::to_string(v) + ": " + what);
  };

  bool has_buffer = false;
  for (NodeId v = 0; static_cast<std::size_t>(v) < nodes_.size(); ++v) {
    const auto& rec = nodes_[static_cast<std::size_t>(v)];
    const auto ins = in_edges(v);
    const auto outs = out_edges(v);

    // Canonicity: same volume on every input edge / every output edge.
    for (const EdgeId e : ins) {
      if (edge(e).volume != edge(ins.front()).volume) {
        complain(v, "input edges carry different volumes (" +
                        std::to_string(edge(ins.front()).volume) + " vs " +
                        std::to_string(edge(e).volume) + ")");
        break;
      }
    }
    for (const EdgeId e : outs) {
      if (edge(e).volume != edge(outs.front()).volume) {
        complain(v, "output edges carry different volumes (" +
                        std::to_string(edge(outs.front()).volume) + " vs " +
                        std::to_string(edge(e).volume) + ")");
        break;
      }
    }
    if (rec.declared_output != 0 && !outs.empty() &&
        rec.declared_output != edge(outs.front()).volume) {
      complain(v, "declared output volume " + std::to_string(rec.declared_output) +
                      " contradicts out-edge volume " + std::to_string(edge(outs.front()).volume));
    }

    switch (rec.kind) {
      case NodeKind::kSource:
        if (!ins.empty()) complain(v, "source has input edges");
        if (rec.declared_output <= 0) complain(v, "source without declared output volume");
        break;
      case NodeKind::kSink:
        if (!outs.empty()) complain(v, "sink has output edges");
        if (ins.empty()) complain(v, "sink without input edges");
        break;
      case NodeKind::kCompute:
        if (ins.empty()) complain(v, "compute node without inputs (use add_source)");
        if (outs.empty() && rec.declared_output <= 0) {
          complain(v, "exit compute node without declared output volume");
        }
        break;
      case NodeKind::kBuffer:
        has_buffer = true;
        if (ins.empty()) complain(v, "buffer node without inputs");
        if (outs.empty()) complain(v, "buffer node without outputs");
        break;
    }
  }

  // The buffer rules need a buffer node; synthetic workloads have none, so
  // they skip the edge scan and the supernode pass entirely.
  if (has_buffer) {
    for (const Edge& e : edges()) {
      if (kind(e.src) == NodeKind::kBuffer && kind(e.dst) == NodeKind::kBuffer) {
        issues.push_back("edge " + std::to_string(e.src) + "->" + std::to_string(e.dst) +
                         ": buffer feeding buffer (merge them into one buffer node)");
      }
    }
  }

  if (!acyclic()) issues.emplace_back("graph contains a directed cycle");

  // Buffer placement rule (Section 4.2.3): the supernode DAG obtained by
  // merging buffer-split WCCs must be acyclic; otherwise an undirected cycle
  // through a buffer node would require "implicit" unbounded buffering.
  if (has_buffer && issues.empty() && !buffer_supernode_dag_is_acyclic(*this)) {
    issues.emplace_back(
        "buffer placement violates Section 4.2.3: a cycle over weakly connected "
        "components passes through a buffer node");
  }

  return issues;
}

void TaskGraph::validate_or_throw() const {
  const auto issues = validate();
  if (issues.empty()) return;
  std::ostringstream os;
  os << "invalid canonical task graph (" << issues.size() << " issue(s)):";
  for (const auto& issue : issues) os << "\n  - " << issue;
  throw std::invalid_argument(os.str());
}

}  // namespace sts
