// Inputs, oracle, and layer helpers shared by the workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "perfbench.hpp"
#include "pipeline/registry.hpp"
#include "service/request.hpp"
#include "service/shard_router.hpp"

namespace perfbench {

inline constexpr const char* kScheduler = "streaming-rlx";

/// One scheduling scenario over the paper topologies: a graph and a PE count.
struct PaperScenario {
  std::size_t graph = 0;
  std::int64_t pes = 0;
};

/// The paper's four evaluation topologies (Sec. 7.1: Chain-8, FFT-223,
/// Gaussian-135, Cholesky-120) x their PE sweeps x `graphs_per_topology`
/// seeded graphs each. `salt` separates disjoint sets drawn from one seed
/// (the timed set and the warm-up set).
struct PaperSet {
  std::vector<sts::TaskGraph> graphs;
  std::vector<PaperScenario> scenarios;

  PaperSet(std::uint64_t seed, std::uint64_t salt, int graphs_per_topology);

  [[nodiscard]] const sts::TaskGraph& graph(std::size_t scenario) const {
    return graphs[scenarios[scenario].graph];
  }
  [[nodiscard]] sts::MachineConfig machine(std::size_t scenario) const;
  /// A whole-graph request envelope for the scenario (a fresh copy).
  [[nodiscard]] sts::ScheduleRequest request(std::size_t scenario) const;
};

/// `copies` occurrences of each of `unique` scenario indices in a seeded
/// shuffle.
[[nodiscard]] std::vector<std::size_t> shuffled_sequence(std::size_t unique, int copies,
                                                         std::uint64_t seed);

/// Direct `schedule_by_name` reference of one scenario: what every reply is
/// compared against, plus how long the direct call took.
struct Reference {
  std::uint64_t fingerprint = 0;
  std::int64_t makespan = 0;
  double speedup = 0.0;
  std::int64_t fifo_capacity = 0;
  double seconds = 0.0;
};

/// References of `count` scenarios, computed on `threads` threads (untimed).
[[nodiscard]] std::vector<Reference> compute_references(
    std::size_t count, int threads,
    const std::function<sts::TaskGraph(std::size_t)>& graph_of,
    const std::function<sts::MachineConfig(std::size_t)>& machine_of);

/// Geometric mean of the references' speedups (the paper's Fig. 10 axis).
[[nodiscard]] double speedup_geomean(const std::vector<Reference>& references);

/// What one reply carried, kept until the oracle is available.
struct Reply {
  std::size_t scenario = 0;
  bool ok = false;
  bool summary_only = false;  ///< a wire reply: compare the summary fields
  std::uint64_t fingerprint = 0;
  std::int64_t makespan = 0;
  double speedup = 0.0;
  std::int64_t fifo_capacity = 0;
};

/// Summarizes a reply's result (null: the request failed), fingerprinting
/// full results.
[[nodiscard]] Reply reply_of(std::size_t scenario, const sts::ScheduleResult* result,
                             bool summary_only);

/// Counts replies that failed or disagree with their scenario's reference.
void check_replies(const std::vector<Reply>& replies, const std::vector<Reference>& references,
                   Report& report);

/// Re-runs the streaming-rlx passes one by one on a fresh ScheduleContext,
/// one span per pass.
void trace_passes(const sts::TaskGraph& graph, const sts::MachineConfig& machine,
                  TraceBuffer* trace);

/// Deltas of ShardRouter counters over timed phases, summed across rounds.
class RouterCounters {
 public:
  void begin(const sts::ShardRouter& router);
  void end(const sts::ShardRouter& router);
  void report(Report& report) const;

 private:
  sts::ShardRouter::Stats before_;
  sts::ServiceStats sum_;
  std::vector<std::uint64_t> backend_submitted_;
  std::size_t max_queue_depth_ = 0;
};

/// Rounds for a run of `seconds` when one round takes about
/// `round_seconds`: at least two, so the steadiness guard has two halves.
[[nodiscard]] std::size_t rounds_for(double seconds, double round_seconds);

[[nodiscard]] std::unique_ptr<Workload> make_paper_serving(const Options& options, bool fleet);
[[nodiscard]] std::unique_ptr<Workload> make_huge_delta(const Options& options);

}  // namespace perfbench
