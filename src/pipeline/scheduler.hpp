#pragma once

#include <string_view>

#include "pipeline/pipeline.hpp"
#include "pipeline/schedule_context.hpp"
#include "support/rational.hpp"

namespace sts {

/// Unified output of any registered scheduler. Exactly one of
/// `streaming` / `list` / `csdf` is populated depending on the scheduler
/// family; `metrics`, `makespan`, and `timings` are always filled.
struct ScheduleResult {
  std::string scheduler;  ///< registry name that produced this result

  std::optional<StreamingSchedule> streaming;
  std::optional<BufferPlan> buffers;
  std::optional<ListSchedule> list;
  std::optional<CsdfAnalysis> csdf;
  std::optional<Placement> placement;
  std::optional<SimResult> sim;  ///< filled when a simulation pass ran

  ScheduleMetrics metrics;
  std::int64_t makespan = 0;

  /// Streaming depth bound T_s_inf that produced metrics.slr, kept as the
  /// exact rational. Decomposes over connected partitions as a plain max,
  /// which is how fragment assembly reproduces a cold run's slr bit-for-bit
  /// without re-deriving whole-graph levels. Zero for non-streaming results.
  Rational depth{0};

  std::vector<PassTiming> timings;

  [[nodiscard]] bool is_streaming() const noexcept { return streaming.has_value(); }
};

/// A named scheduling strategy: assembles the pass pipeline that realizes it
/// (partitioning + streaming scheduling + FIFO sizing for the paper's
/// method; a single scheduling pass for the baselines) and runs it over a
/// fresh ScheduleContext. Instances are stateless and cheap; create them
/// through SchedulerRegistry.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// The pass sequence realizing this scheduler under `machine`.
  [[nodiscard]] virtual Pipeline build_pipeline(const MachineConfig& machine) const = 0;

  /// Validates preconditions (canonical graph, positive PE count), runs the
  /// pipeline, and packs the context artifacts into a ScheduleResult.
  /// Throws std::invalid_argument with the full diagnostic list when the
  /// graph is not a valid canonical task graph or the machine is degenerate.
  /// A non-null `canon` must be the canonical_partition_index of `graph`;
  /// the partition pass then uses it instead of canonicalizing again.
  [[nodiscard]] ScheduleResult schedule(const TaskGraph& graph, const MachineConfig& machine,
                                        const CanonicalPartitionIndex* canon = nullptr) const;
};

/// Shared precondition check: throws std::invalid_argument listing every
/// graph violation, or naming the bad machine parameter.
void validate_schedule_inputs(const TaskGraph& graph, const MachineConfig& machine);

}  // namespace sts
