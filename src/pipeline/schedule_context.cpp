#include "pipeline/schedule_context.hpp"

#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"
#include "support/text.hpp"

namespace sts {

std::string MachineConfig::cache_key() const {
  std::string key;
  key.reserve(48 + 12 * pe_speed.size());
  key += "pes=";
  append_number(key, num_pes);
  key += ";fifo=";
  append_number(key, default_fifo_capacity);
  key += ";mesh=";
  key += place_on_mesh ? '1' : '0';
  key += ";speeds=";
  for (std::size_t i = 0; i < pe_speed.size(); ++i) {
    if (i > 0) key += ',';
    append_number(key, pe_speed[i]);
  }
  return key;
}

const GraphTopology& ScheduleContext::topology() {
  if (!graph_topology) {
    const TaskGraph& g = require_graph();
    GraphTopology analysis;
    analysis.order = topological_waves(g).order;
    analysis.level = node_levels(g, analysis.order);
    graph_topology = std::move(analysis);
  }
  return *graph_topology;
}

const GraphTopology& ScheduleContext::require_topology() const {
  if (!graph_topology) {
    throw std::logic_error("ScheduleContext: topology missing (run a partition pass first)");
  }
  return *graph_topology;
}

const TaskGraph& ScheduleContext::require_graph() const {
  if (graph == nullptr) throw std::logic_error("ScheduleContext: no graph attached");
  return *graph;
}

const SpatialPartition& ScheduleContext::require_partition() const {
  if (!partition) {
    throw std::logic_error("ScheduleContext: partition missing (run a partition pass first)");
  }
  return *partition;
}

const StreamingSchedule& ScheduleContext::require_streaming() const {
  if (!streaming) {
    throw std::logic_error(
        "ScheduleContext: streaming schedule missing (run the streaming-schedule pass first)");
  }
  return *streaming;
}

}  // namespace sts
