#pragma once

#include "core/partition.hpp"
#include "pipeline/pass.hpp"
#include "sim/dataflow_sim.hpp"

namespace sts {

/// Which spatial-block partitioning algorithm PartitionPass runs.
enum class PartitionStrategy : std::uint8_t {
  kLTS,   ///< Algorithm 1, SB-LTS (PartitionVariant::kLTS)
  kRLX,   ///< Algorithm 1, SB-RLX (PartitionVariant::kRLX)
  kWork,  ///< Algorithm 2, work-ordered (partition_by_work)
};

[[nodiscard]] const char* to_string(PartitionStrategy strategy) noexcept;

/// Spatial-block partitioning (paper Section 5.2) -> ctx.partition. Breaks
/// ties by ctx.canon's ranks when set, else canonicalizes the graph.
class PartitionPass final : public Pass {
 public:
  explicit PartitionPass(PartitionStrategy strategy) : strategy_(strategy) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "partition"; }
  void run(ScheduleContext& ctx) const override;
  void validate(const ScheduleContext& ctx) const override;

 private:
  PartitionStrategy strategy_;
};

/// Within-block streaming scheduling (Section 5.1) -> ctx.streaming,
/// ctx.makespan. Requires ctx.partition.
class StreamingSchedulePass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "streaming-schedule"; }
  void run(ScheduleContext& ctx) const override;
  void validate(const ScheduleContext& ctx) const override;
};

/// Deadlock-free FIFO sizing (Section 6) -> ctx.buffers. Requires
/// ctx.streaming.
class BufferSizingPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "buffer-sizing"; }
  void run(ScheduleContext& ctx) const override;
  void validate(const ScheduleContext& ctx) const override;
};

/// Greedy communication-aware mesh placement (the Section 9 extension)
/// -> ctx.placement. Requires ctx.streaming.
class PlacementPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "placement"; }
  void run(ScheduleContext& ctx) const override;
};

/// Non-streaming critical-path list scheduling (NSTR-SCH baseline,
/// Section 7) -> ctx.list, ctx.makespan.
class ListSchedulePass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "list-schedule"; }
  void run(ScheduleContext& ctx) const override;
};

/// HEFT on the (possibly heterogeneous) machine -> ctx.list, ctx.makespan.
class HeftPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "heft"; }
  void run(ScheduleContext& ctx) const override;
};

/// CSDF conversion + self-timed execution (Section 7.2) -> ctx.csdf,
/// ctx.makespan. Throws for graphs with buffer nodes (not representable).
class CsdfPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "csdf"; }
  void run(ScheduleContext& ctx) const override;
};

/// Evaluation metrics (speedup, SLR, utilization, FIFO space) for whichever
/// schedule upstream passes produced -> ctx.metrics.
class MetricsPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "metrics"; }
  void run(ScheduleContext& ctx) const override;
};

/// Validation-by-simulation (paper Appendix B) -> ctx.sim. Replays the
/// streaming schedule through the dataflow simulator (bulk-advance engine by
/// default); validate() rejects schedules that deadlock or exceed the tick
/// limit. Requires ctx.streaming and ctx.buffers.
class SimulationPass final : public Pass {
 public:
  explicit SimulationPass(SimOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "simulation"; }
  void run(ScheduleContext& ctx) const override;
  void validate(const ScheduleContext& ctx) const override;

 private:
  SimOptions options_;
};

}  // namespace sts
