#include "pipeline/passes.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "baseline/heft.hpp"
#include "core/buffer_sizing.hpp"
#include "core/work_depth.hpp"
#include "metrics/metrics.hpp"
#include "noc/mesh.hpp"

namespace sts {

const char* to_string(PartitionStrategy strategy) noexcept {
  switch (strategy) {
    case PartitionStrategy::kLTS: return "lts";
    case PartitionStrategy::kRLX: return "rlx";
    case PartitionStrategy::kWork: return "work";
  }
  return "?";
}

void PartitionPass::run(ScheduleContext& ctx) const {
  const TaskGraph& g = ctx.require_graph();
  const std::span<const Rational> levels = ctx.topology().level;
  Workspace* const ws = ctx.workspace.get();
  switch (strategy_) {
    case PartitionStrategy::kLTS:
      ctx.partition = partition_spatial_blocks(g, ctx.machine.num_pes, PartitionVariant::kLTS,
                                               levels, ws, ctx.canon);
      break;
    case PartitionStrategy::kRLX:
      ctx.partition = partition_spatial_blocks(g, ctx.machine.num_pes, PartitionVariant::kRLX,
                                               levels, ws, ctx.canon);
      break;
    case PartitionStrategy::kWork:
      ctx.partition = partition_by_work(g, ctx.machine.num_pes, levels, ws, ctx.canon);
      break;
  }
}

void PartitionPass::validate(const ScheduleContext& ctx) const {
  if (!partition_is_valid(ctx.require_graph(), ctx.require_partition(), ctx.machine.num_pes,
                          ctx.require_topology().order)) {
    throw std::runtime_error("PartitionPass: produced an invalid spatial partition");
  }
}

void StreamingSchedulePass::run(ScheduleContext& ctx) const {
  const std::span<const NodeId> order = ctx.topology().order;
  ctx.streaming =
      schedule_streaming(ctx.require_graph(), ctx.require_partition(), order, ctx.workspace.get());
  ctx.makespan = ctx.streaming->makespan;
}

void StreamingSchedulePass::validate(const ScheduleContext& ctx) const {
  const TaskGraph& g = ctx.require_graph();
  const StreamingSchedule& s = ctx.require_streaming();
  if (s.timing.size() != g.node_count()) {
    throw std::runtime_error("StreamingSchedulePass: timing entries != node count");
  }
  if (g.total_work() > 0 && s.makespan <= 0) {
    throw std::runtime_error("StreamingSchedulePass: non-positive makespan for non-empty graph");
  }
}

void BufferSizingPass::run(ScheduleContext& ctx) const {
  ctx.buffers = compute_buffer_plan(ctx.require_graph(), ctx.require_streaming(),
                                    ctx.machine.default_fifo_capacity);
}

void BufferSizingPass::validate(const ScheduleContext& ctx) const {
  const TaskGraph& g = ctx.require_graph();
  if (!ctx.buffers) throw std::logic_error("BufferSizingPass: buffers missing after run");
  for (const ChannelPlan& c : ctx.buffers->channels) {
    if (c.capacity < 1 || c.capacity > std::max<std::int64_t>(1, g.edge(c.edge).volume)) {
      throw std::runtime_error("BufferSizingPass: channel capacity outside [1, volume] on edge " +
                               std::to_string(c.edge));
    }
  }
}

void PlacementPass::run(ScheduleContext& ctx) const {
  const Mesh mesh = Mesh::for_pes(ctx.machine.num_pes);
  ctx.placement = place_greedy(ctx.require_graph(), ctx.require_streaming(), mesh);
}

void ListSchedulePass::run(ScheduleContext& ctx) const {
  ctx.list = schedule_non_streaming(ctx.require_graph(), ctx.machine.num_pes);
  ctx.makespan = ctx.list->makespan;
}

void HeftPass::run(ScheduleContext& ctx) const {
  const HeterogeneousSystem system =
      ctx.machine.pe_speed.empty() ? HeterogeneousSystem::homogeneous(ctx.machine.num_pes)
                                   : HeterogeneousSystem{ctx.machine.pe_speed};
  ctx.list = schedule_heft(ctx.require_graph(), system);
  ctx.makespan = ctx.list->makespan;
}

void CsdfPass::run(ScheduleContext& ctx) const {
  const CsdfGraph csdf = csdf_from_canonical(ctx.require_graph());
  ctx.csdf = analyze_self_timed(csdf);
  if (ctx.csdf->deadlocked || ctx.csdf->timed_out) {
    throw std::runtime_error(std::string("CsdfPass: self-timed execution ") +
                             (ctx.csdf->deadlocked ? "deadlocked" : "timed out"));
  }
  ctx.makespan = ctx.csdf->makespan;
}

void MetricsPass::run(ScheduleContext& ctx) const {
  const TaskGraph& g = ctx.require_graph();
  ScheduleMetrics m;
  const std::int64_t t1 = g.total_work();
  if (ctx.makespan > 0) m.speedup = speedup(t1, ctx.makespan);
  if (ctx.streaming) {
    const GraphTopology& topology = ctx.topology();
    ctx.streaming_depth_bound = streaming_depth(g, topology.order, topology.level);
    m.slr = streaming_slr(ctx.streaming->makespan, ctx.streaming_depth_bound);
    m.utilization = streaming_utilization(g, *ctx.streaming, ctx.machine.num_pes);
  } else if (ctx.list) {
    if (ctx.list->critical_path > 0) {
      m.slr = static_cast<double>(ctx.list->makespan) /
              static_cast<double>(ctx.list->critical_path);
    }
    m.utilization = non_streaming_utilization(g, *ctx.list, ctx.machine.num_pes);
  }
  if (ctx.buffers) m.fifo_capacity = ctx.buffers->total_capacity;
  ctx.metrics = m;
}

void SimulationPass::run(ScheduleContext& ctx) const {
  if (!ctx.buffers) {
    throw std::logic_error("SimulationPass: buffers missing (run buffer-sizing first)");
  }
  ctx.sim = simulate_streaming(ctx.require_graph(), ctx.require_streaming(), *ctx.buffers,
                               options_);
}

void SimulationPass::validate(const ScheduleContext& ctx) const {
  if (!ctx.sim) throw std::logic_error("SimulationPass: sim result missing after run");
  if (ctx.sim->deadlocked) {
    std::string stuck;
    for (const NodeId v : ctx.sim->stuck) {
      if (!stuck.empty()) stuck += ',';
      stuck += std::to_string(v);
    }
    throw std::runtime_error("SimulationPass: schedule deadlocked (stuck tasks: " + stuck + ")");
  }
  if (ctx.sim->tick_limit_reached) {
    throw std::runtime_error("SimulationPass: tick limit reached before completion");
  }
}

}  // namespace sts
