// Micro-benchmark: cached vs uncached scheduling throughput on repeated
// synthetic workloads — the serving scenario the ScheduleCache exists for
// (many queries over a small working set of distinct graphs). For each
// topology we schedule the same ~100-node graph `kRepeats` times cold
// (straight through SchedulerRegistry) and through the global-style cache,
// and report queries/second plus the speedup of the hit path. The cache-hit
// path still pays for the canonical key (graph serialization + FNV-1a), so
// the speedup measures memoization, not a no-op loop.
//
// The cached loop re-keys one graph, whose CSR the first (missing) query
// built. A served hit keys a graph that was just copied or parsed, so the
// `fresh-key q/s` column repeats the hits on fresh copies made before the
// timer starts: the cost of a hit as a server sees it (no gate).

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/schedule_cache.hpp"
#include "support/table.hpp"
#include "workloads/synthetic.hpp"

namespace {

constexpr int kRepeats = 200;

struct Workload {
  std::string name;
  sts::TaskGraph graph;
  std::int64_t pes;
};

}  // namespace

int main() {
  using namespace sts;
  using namespace sts::bench;

  std::cout << "Pipeline cache: cached vs uncached scheduling throughput\n"
            << kRepeats << " repeated queries per workload; scheduler = streaming-rlx\n\n";

  LayeredSpec layered;
  layered.layers = 16;
  layered.width = 12;  // widths are sampled, so this lands near 100 nodes
  std::vector<Workload> workloads;
  workloads.push_back({"Layered(16x12)", make_random_layered(layered, 1), 25});
  workloads.push_back({"FFT(16)", make_fft(16, 1), 24});
  workloads.push_back({"Cholesky(8)", make_cholesky(8, 1), 30});

  Table table({"workload", "#nodes", "cold q/s", "cached q/s", "fresh-key q/s", "speedup",
               "hits", "misses"});
  BenchReport report("pipeline_cache");
  bool all_fast = true;
  for (const Workload& w : workloads) {
    MachineConfig machine;
    machine.num_pes = w.pes;

    // Cold path: every query runs the full pipeline.
    Stopwatch cold_clock;
    for (int i = 0; i < kRepeats; ++i) {
      const ScheduleResult r = schedule_by_name("streaming-rlx", w.graph, machine);
      if (r.makespan <= 0) return 1;
    }
    const double cold_seconds = cold_clock.seconds();

    // Cached path: first query computes, the rest hit.
    ScheduleCache cache;
    Stopwatch cached_clock;
    for (int i = 0; i < kRepeats; ++i) {
      const auto r = cache.get_or_schedule(w.graph, "streaming-rlx", machine);
      if (r->makespan <= 0) return 1;
    }
    const double cached_seconds = cached_clock.seconds();
    const ScheduleCache::Stats stats = cache.stats();

    // Served hits: each query keys its own fresh copy of the graph.
    const std::vector<TaskGraph> copies(kRepeats, w.graph);
    Stopwatch fresh_clock;
    for (const TaskGraph& copy : copies) {
      const auto r = cache.get_or_schedule(copy, "streaming-rlx", machine);
      if (r->makespan <= 0) return 1;
    }
    const double fresh_seconds = fresh_clock.seconds();
    if (cache.stats().hits != stats.hits + kRepeats) {
      std::cerr << w.name << ": a fresh copy of the graph missed the cache\n";
      return 1;
    }

    const double speedup = cold_seconds / cached_seconds;
    all_fast = all_fast && speedup >= 10.0;
    table.add_row({w.name, std::to_string(w.graph.node_count()),
                   fmt(kRepeats / cold_seconds, 0), fmt(kRepeats / cached_seconds, 0),
                   fmt(kRepeats / fresh_seconds, 0), fmt(speedup, 1) + "x",
                   std::to_string(stats.hits), std::to_string(stats.misses)});
    std::string key = w.name.substr(0, w.name.find('('));
    report.add(key + "_speedup", speedup);
    report.add(key + "_cold_qps", kRepeats / cold_seconds);
    report.add(key + "_cached_qps", kRepeats / cached_seconds);
    report.add(key + "_fresh_cached_qps", kRepeats / fresh_seconds);
  }
  table.print(std::cout);
  std::cout << "\nExpected: cache-hit scheduling >= 10x faster than cold scheduling\n"
            << (all_fast ? "RESULT: PASS" : "RESULT: BELOW TARGET") << "\n";
  report.add("gate", std::string(all_fast ? "pass" : "fail"));
  report.write();
  return all_fast ? 0 : 1;
}
