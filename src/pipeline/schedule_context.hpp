#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/list_scheduler.hpp"
#include "core/buffer_sizing.hpp"
#include "core/partition.hpp"
#include "core/streaming_schedule.hpp"
#include "csdf/csdf.hpp"
#include "graph/task_graph.hpp"
#include "noc/placement.hpp"
#include "sim/dataflow_sim.hpp"
#include "support/rational.hpp"

namespace sts {

/// Machine-side inputs of a scheduling run, shared by every scheduler behind
/// the pipeline API. The paper's model is `num_pes` homogeneous PEs;
/// `pe_speed` (used by HEFT) generalizes to heterogeneous fabrics and, when
/// empty, defaults to `num_pes` unit-speed PEs.
struct MachineConfig {
  std::int64_t num_pes = 8;

  /// Slack slots granted to every streaming FIFO on top of the Equation 5
  /// requirement (see compute_buffer_plan; 2 = double buffering).
  std::int64_t default_fifo_capacity = 2;

  /// Relative PE speeds for heterogeneous scheduling (HEFT). Empty means
  /// `num_pes` homogeneous unit-speed PEs.
  std::vector<double> pe_speed;

  /// Run the NoC placement pass (greedy mesh placement) after scheduling.
  bool place_on_mesh = false;

  /// Always 1: every request runs on the thread that serves it. This
  /// constant and Workspace's ignored-argument constructor stay only because
  /// perfbench/src/common.cpp builds `Workspace(machine.intra_threads)`; a
  /// benchmark change that drops that argument lets both go.
  static constexpr std::int64_t intra_threads = 1;

  /// Canonical text form of every result-affecting field, used as part of
  /// cache keys.
  [[nodiscard]] std::string cache_key() const;
};

/// Wall-clock timing of one executed pipeline pass.
struct PassTiming {
  std::string pass;
  double seconds = 0.0;
};

/// Summary metrics of a schedule (the paper's Section 7 evaluation axes).
struct ScheduleMetrics {
  double speedup = 0.0;      ///< T1 / makespan
  double slr = 0.0;          ///< makespan / T_s_inf (streaming) or / CP (baseline)
  double utilization = 0.0;  ///< busy PE-time over P * makespan
  std::int64_t fifo_capacity = 0;  ///< total FIFO slots (streaming schedules)
};

/// The dependency-order analysis of a run's graph: one topological order and
/// the generalized node levels (node_levels) computed along it. A streaming
/// run computes it once (ScheduleContext::topology) and every pass that
/// walks the graph in dependency order reads it: the partitioners and their
/// canonicalization seeds, the partition check, the ST/FO/LO recurrences and
/// the streaming depth bound. Their results are the same for every
/// topological order.
struct GraphTopology {
  std::vector<NodeId> order;    ///< topological_waves(graph).order
  std::vector<Rational> level;  ///< node_levels(graph, order)
};

/// Shared state threaded through a pipeline run: the immutable problem
/// (graph + machine config) plus the artifacts each pass deposits for its
/// successors. Artifacts start empty; a pass that needs a missing upstream
/// artifact throws std::logic_error naming the missing stage, so pipeline
/// mis-assembly fails loudly instead of reading garbage.
struct ScheduleContext {
  const TaskGraph* graph = nullptr;
  MachineConfig machine;

  /// Canonical partition index of `graph` when the caller already holds one
  /// (a fragment materialized by the SubgraphCache); non-owning, like
  /// `graph`. Null means PartitionPass canonicalizes the graph itself.
  const CanonicalPartitionIndex* canon = nullptr;

  /// Per-request arena scratch, created by Scheduler::schedule and threaded
  /// into the pass implementations. Shared-ptr so contexts stay copyable;
  /// passes treat a null workspace as "local scratch".
  std::shared_ptr<Workspace> workspace;

  // Artifacts, in pipeline order.
  std::optional<SpatialPartition> partition;   ///< PartitionPass
  std::optional<StreamingSchedule> streaming;  ///< StreamingSchedulePass
  std::optional<BufferPlan> buffers;           ///< BufferSizingPass
  std::optional<ListSchedule> list;            ///< ListSchedulePass / HeftPass
  std::optional<CsdfAnalysis> csdf;            ///< CsdfPass
  std::optional<Placement> placement;          ///< PlacementPass
  std::optional<ScheduleMetrics> metrics;      ///< MetricsPass
  std::optional<SimResult> sim;                ///< SimulationPass

  /// Makespan of whichever schedule the pipeline produced.
  std::int64_t makespan = 0;

  /// Exact streaming depth bound behind metrics.slr (MetricsPass, streaming
  /// schedulers only); forwarded into ScheduleResult::depth.
  Rational streaming_depth_bound{0};

  /// Per-pass wall-clock timings recorded by Pipeline::run.
  std::vector<PassTiming> timings;

  /// The analysis topology() computed; empty until a pass first asks.
  std::optional<GraphTopology> graph_topology;

  /// The run's topological order and node levels, computed on the first call
  /// and shared by every later one, so a context assembled by hand (graph
  /// and machine only) gets them the same way a Scheduler's does.
  [[nodiscard]] const GraphTopology& topology();

  /// The analysis an earlier topology() call computed, for const readers
  /// such as a pass's validate hook; throws std::logic_error when none ran.
  [[nodiscard]] const GraphTopology& require_topology() const;

  [[nodiscard]] const TaskGraph& require_graph() const;
  [[nodiscard]] const SpatialPartition& require_partition() const;
  [[nodiscard]] const StreamingSchedule& require_streaming() const;
};

}  // namespace sts
