#include "pipeline/scheduler.hpp"

#include <stdexcept>
#include <string>

namespace sts {

void validate_schedule_inputs(const TaskGraph& graph, const MachineConfig& machine) {
  if (machine.num_pes <= 0) {
    throw std::invalid_argument("schedule: num_pes must be positive, got " +
                                std::to_string(machine.num_pes));
  }
  if (machine.default_fifo_capacity < 1) {
    throw std::invalid_argument("schedule: default_fifo_capacity must be >= 1, got " +
                                std::to_string(machine.default_fifo_capacity));
  }
  if (!machine.pe_speed.empty()) {
    if (static_cast<std::int64_t>(machine.pe_speed.size()) != machine.num_pes) {
      throw std::invalid_argument("schedule: pe_speed has " +
                                  std::to_string(machine.pe_speed.size()) +
                                  " entries but num_pes is " + std::to_string(machine.num_pes));
    }
    for (const double speed : machine.pe_speed) {
      if (!(speed > 0.0)) {
        throw std::invalid_argument("schedule: pe_speed entries must be positive");
      }
    }
  }
  const std::vector<std::string> violations = graph.validate();
  if (!violations.empty()) {
    std::string message = "schedule: graph is not a valid canonical task graph:";
    for (const std::string& v : violations) {
      message += "\n  - ";
      message += v;
    }
    throw std::invalid_argument(message);
  }
}

ScheduleResult Scheduler::schedule(const TaskGraph& graph, const MachineConfig& machine,
                                   const CanonicalPartitionIndex* canon) const {
  validate_schedule_inputs(graph, machine);

  ScheduleContext ctx;
  ctx.graph = &graph;
  ctx.machine = machine;
  ctx.canon = canon;
  ctx.workspace = std::make_shared<Workspace>();
  build_pipeline(machine).run(ctx);

  ScheduleResult result;
  result.scheduler = std::string(name());
  result.streaming = std::move(ctx.streaming);
  result.buffers = std::move(ctx.buffers);
  result.list = std::move(ctx.list);
  result.csdf = ctx.csdf;
  result.placement = std::move(ctx.placement);
  result.sim = std::move(ctx.sim);
  if (ctx.metrics) result.metrics = *ctx.metrics;
  result.makespan = ctx.makespan;
  result.depth = ctx.streaming_depth_bound;
  result.timings = std::move(ctx.timings);
  return result;
}

}  // namespace sts
