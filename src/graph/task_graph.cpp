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

NodeId TaskGraph::add_node(NodeKind kind, std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRec{kind, std::move(name), 0});
  csr_ready_.store(false, std::memory_order_relaxed);
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
  csr_ready_.store(false, std::memory_order_relaxed);
}

EdgeId TaskGraph::add_edge(NodeId src, NodeId dst, std::int64_t volume) {
  check_node(src);
  check_node(dst);
  if (volume <= 0) throw std::invalid_argument("add_edge: volume must be > 0");
  if (src == dst) throw std::invalid_argument("add_edge: self loop");
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst, volume});
  csr_ready_.store(false, std::memory_order_relaxed);
  return id;
}

void TaskGraph::check_node(NodeId v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= nodes_.size()) {
    throw std::out_of_range("TaskGraph: invalid node id " + std::to_string(v));
  }
}

void TaskGraph::rebuild_csr() const {
  // Serialize the rare rebuild so threads sharing a const graph (e.g. the
  // ScheduleCache scheduling path) cannot race on the cache vectors; the
  // release store at the end of rebuild_csr_locked() publishes the built
  // arrays to acquire loads in ensure_csr().
  const MutexLock lock(rebuild_mutex_);
  rebuild_csr_locked();
}

void TaskGraph::rebuild_csr_locked() const {
  if (csr_ready_.load(std::memory_order_relaxed)) return;  // lost the race

  const std::size_t n = nodes_.size();
  const std::size_t m = edges_.size();

  // Counting sort of edge ids into flat per-node spans. Iterating edges in
  // id order keeps each span in edge-insertion order.
  in_off_.assign(n + 1, 0);
  out_off_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++in_off_[static_cast<std::size_t>(e.dst) + 1];
    ++out_off_[static_cast<std::size_t>(e.src) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    in_off_[i + 1] += in_off_[i];
    out_off_[i + 1] += out_off_[i];
  }
  in_csr_.resize(m);
  out_csr_.resize(m);
  std::vector<std::int32_t> in_cursor(in_off_.begin(), in_off_.end() - 1);
  std::vector<std::int32_t> out_cursor(out_off_.begin(), out_off_.end() - 1);
  for (EdgeId e = 0; static_cast<std::size_t>(e) < m; ++e) {
    const Edge& edge = edges_[static_cast<std::size_t>(e)];
    in_csr_[static_cast<std::size_t>(in_cursor[static_cast<std::size_t>(edge.dst)]++)] = e;
    out_csr_[static_cast<std::size_t>(out_cursor[static_cast<std::size_t>(edge.src)]++)] = e;
  }

  // Per-node profiles: I/O volumes, work, reduced production rate.
  profile_.assign(n, NodeProfile{});
  for (std::size_t idx = 0; idx < n; ++idx) {
    NodeProfile& p = profile_[idx];
    const NodeRec& rec = nodes_[idx];
    if (in_off_[idx + 1] > in_off_[idx]) {
      p.in_volume = edges_[static_cast<std::size_t>(in_csr_[static_cast<std::size_t>(in_off_[idx])])]
                        .volume;
    }
    if (rec.kind != NodeKind::kSink) {
      if (out_off_[idx + 1] > out_off_[idx]) {
        p.out_volume =
            edges_[static_cast<std::size_t>(out_csr_[static_cast<std::size_t>(out_off_[idx])])]
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
  csr_ready_.store(true, std::memory_order_release);
}

std::int64_t TaskGraph::input_volume(NodeId v) const {
  check_node(v);
  ensure_csr();
  return profile_[static_cast<std::size_t>(v)].in_volume;
}

std::int64_t TaskGraph::output_volume(NodeId v) const {
  check_node(v);
  ensure_csr();
  return profile_[static_cast<std::size_t>(v)].out_volume;
}

Rational TaskGraph::rate(NodeId v) const {
  check_node(v);
  ensure_csr();
  const NodeProfile& p = profile_[static_cast<std::size_t>(v)];
  if (p.in_volume == 0) {
    throw std::logic_error("rate(): node " + std::to_string(v) + " has no inputs (source?)");
  }
  return Rational(p.rate_num, p.rate_den);
}

std::int64_t TaskGraph::work(NodeId v) const {
  check_node(v);
  ensure_csr();
  return profile_[static_cast<std::size_t>(v)].work;
}

std::int64_t TaskGraph::total_work() const {
  ensure_csr();
  std::int64_t sum = 0;
  for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
    if (nodes_[idx].kind != NodeKind::kBuffer) sum += profile_[idx].work;
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
    for (const Edge& e : edges_) {
      if (kind(e.src) == NodeKind::kBuffer && kind(e.dst) == NodeKind::kBuffer) {
        issues.push_back("edge " + std::to_string(e.src) + "->" + std::to_string(e.dst) +
                         ": buffer feeding buffer (merge them into one buffer node)");
      }
    }
  }

  if (!is_acyclic(*this)) issues.emplace_back("graph contains a directed cycle");

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
