#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/buffer_sizing.hpp"
#include "core/streaming_schedule.hpp"
#include "graph/task_graph.hpp"

namespace sts {

/// Which simulation engine executes the schedule.
enum class SimEngine : std::uint8_t {
  /// Bulk-advance unless a per-element trace was requested.
  kAuto,
  /// Event engine that detects periodic steady-state action patterns and
  /// advances whole runs of periods in O(1): cost scales with transients and
  /// completions instead of total stream volume. Produces results identical
  /// to the reference engine (proven by the differential fuzz suite).
  kBulkAdvance,
  /// The tick-accurate reference oracle: one consume/produce step per node
  /// per tick. Cost scales with total stream volume x node degree. Required
  /// (and automatically selected) when `record_trace` is set, since the
  /// trace is inherently per-element.
  kTickAccurate,
};

[[nodiscard]] const char* to_string(SimEngine engine) noexcept;

/// Options for the dataflow simulation.
struct SimOptions {
  /// Safety limit; a run exceeding it reports tick_limit_reached.
  std::int64_t max_ticks = 50'000'000;
  /// Record the full element-movement event trace (consume/produce steps).
  /// Forces the tick-accurate engine.
  bool record_trace = false;
  /// Engine selection; see SimEngine.
  SimEngine engine = SimEngine::kAuto;

  /// Canonical text form of every result-affecting field, appended to
  /// schedule cache keys by requests that chain a simulation (sim set on
  /// ScheduleRequest) so simulated and plain results never collide.
  [[nodiscard]] std::string cache_key() const;
};

/// One element-movement step of the simulation trace.
struct SimEvent {
  enum class Kind : std::uint8_t { kConsume, kProduce };
  std::int64_t tick = 0;
  NodeId node = kInvalidNode;
  Kind kind = Kind::kConsume;
};

/// Outcome of simulating a streaming schedule.
struct SimResult {
  bool deadlocked = false;
  bool tick_limit_reached = false;
  /// Simulated makespan: last tick at which any PE task moved an element.
  std::int64_t makespan = 0;
  /// Per node: tick of its last element movement (the simulated LO).
  std::vector<std::int64_t> finish;
  /// Per node: tick of its first produced element (the simulated FO);
  /// 0 if the node never produced.
  std::vector<std::int64_t> first_out;
  /// Full event trace when SimOptions::record_trace is set (tick-ordered).
  std::vector<SimEvent> trace;
  /// Incomplete PE tasks when a deadlock was detected.
  std::vector<NodeId> stuck;
  std::int64_t ticks_executed = 0;
  /// Engine that actually ran (kAuto resolves to a concrete engine).
  SimEngine engine_used = SimEngine::kTickAccurate;
  /// Ticks stepped one-by-one (== ticks_executed for the reference engine;
  /// typically orders of magnitude smaller for bulk-advance).
  std::int64_t live_ticks = 0;
  /// Number of bulk period-jumps performed (bulk-advance engine only).
  std::int64_t bulk_jumps = 0;
};

/// Discrete-event simulation of a streaming schedule (paper Appendix B).
///
/// Model (mirrors the paper's simpy validation):
///  - Every task is a process moving one element per input edge and one per
///    output edge per unit of time, with constant internal space: a node may
///    only run ahead of its output by the inputs of the next output element
///    (downsamplers accumulate 1/R inputs, upsamplers emit R outputs per
///    input, buffers absorb everything).
///  - Streaming channels (same-block task-to-task edges) are finite FIFOs
///    with blocking-after-service semantics, sized by the BufferPlan.
///    Reads and writes in the same time unit see reads first, so a
///    capacity-1 FIFO sustains one element per unit.
///  - Edges to/from buffer nodes and across spatial blocks go through global
///    memory: unbounded, but consumers of a later block only start once the
///    previous block completed (gang-scheduled barriers).
///  - An element produced in time unit t is consumable from t+1 on; a node
///    may consume and produce in the same unit (pipelining), which matches
///    the ST/FO/LO recurrences of Section 5.1.
///
/// Deadlock (all incomplete tasks blocked) is detected and reported; with
/// buffer space from Equation 5 it must not occur on valid schedules.
///
/// Two engines are available (SimOptions::engine): the default bulk-advance
/// engine and the tick-accurate reference it is differentially verified
/// against. Both return identical results; bulk-advance is asymptotically
/// faster on long streams.
[[nodiscard]] SimResult simulate_streaming(const TaskGraph& graph,
                                           const StreamingSchedule& schedule,
                                           const BufferPlan& buffers, SimOptions options = {});

}  // namespace sts
