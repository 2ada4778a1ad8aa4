#pragma once

#include <cstdint>
#include <vector>

#include "baseline/list_scheduler.hpp"
#include "graph/task_graph.hpp"

namespace sts {

/// A set of heterogeneous processing elements, described by their relative
/// speeds (work units per time unit). The paper's model assumes homogeneous
/// PEs; heterogeneous System-on-Chip fabrics are the extension named in its
/// conclusion. This module provides the corresponding non-streaming
/// baseline: HEFT (Topcuoglu et al. [33]), the de-facto standard list
/// scheduler for heterogeneous systems.
struct HeterogeneousSystem {
  std::vector<double> pe_speed;

  /// All PEs at speed 1 — reduces HEFT to the homogeneous baseline.
  [[nodiscard]] static HeterogeneousSystem homogeneous(std::int64_t pes) {
    return HeterogeneousSystem{std::vector<double>(static_cast<std::size_t>(pes), 1.0)};
  }

  [[nodiscard]] std::int64_t pe_count() const noexcept {
    return static_cast<std::int64_t>(pe_speed.size());
  }

  /// Execution time of `work` units on PE `pe` (ceil to whole time units).
  [[nodiscard]] std::int64_t duration(std::int64_t work, std::int64_t pe) const;

  /// Mean execution time across PEs (the HEFT ranking cost).
  [[nodiscard]] double mean_duration(std::int64_t work) const;
};

/// HEFT: tasks ranked by upward rank (mean cost + max successor rank),
/// then greedily assigned to the PE with the earliest insertion-based
/// finish time. Task cost is W(v) = max(I,O) scaled by PE speed;
/// communication is buffered through global memory (cost folded into the
/// data-proportional task costs, as in the homogeneous baseline).
/// Buffer nodes take no PE and no time.
[[nodiscard]] ListSchedule schedule_heft(const TaskGraph& graph,
                                         const HeterogeneousSystem& system);

/// Upward ranks used by the priority order (exposed for tests).
[[nodiscard]] std::vector<double> upward_ranks(const TaskGraph& graph,
                                               const HeterogeneousSystem& system);

}  // namespace sts
