#pragma once

// Shared random-topology shapes for the property/fuzz suites
// (test_fuzz.cpp, test_sim_engines.cpp, test_request.cpp): layered DAGs
// exercising corner shapes the hand-built workloads do not (diamonds, wide
// joins, deep skips), and a helper that composes them into multi-component
// graphs.

#include <string>

#include "graph/task_graph.hpp"
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

}  // namespace sts::testing
