// One scheduling request at 10^5..10^6-node scale, run on the calling
// thread. Three phases:
//
//   alloc    — arena heap-block audit of one 10^5-node request: scheduling
//              must cost at most 64 arena blocks, i.e. O(log n) heap traffic
//              instead of per-node allocations. Hard gate on every host.
//   latency  — best-of-N streaming-rlx schedule latency on the 10^5-node
//              graph, gated at 1.0 s on every host: heap-ordered ready sets
//              keep the partitioner at O((N+E) log N).
//   mega     — one 10^6-node schedule, reported only; skipped in smoke mode
//              (STS_BENCH_GRAPHS set) where it would dominate the job's wall
//              time.
//
// The latency and mega phases also report where the time went: each pipeline
// pass's seconds (of the best run) and the process's peak resident set
// (VmHWM) after the phase.
//
// Graphs come from a bounded fan-in layered generator (each node samples a
// constant number of predecessors), so building a 10^6-node topology is
// O(nodes), unlike LayeredSpec's per-pair coin flips. Writes
// BENCH_huge_graph.json; exits non-zero on any gate failure.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "pipeline/registry.hpp"
#include "support/arena.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace sts;
using bench::BenchReport;
using bench::Stopwatch;

/// Layered DAG with exactly `width` nodes per layer and `fan_in` sampled
/// predecessors per non-entry node (deduplicated, so a node may end up with
/// fewer). O(layers * width * fan_in) — scales to 10^6 nodes.
TaskGraph make_huge_layered(int layers, int width, int fan_in, std::uint64_t seed) {
  Prng rng(seed ^ 0x5851f42d4c957f2dULL);
  const std::int64_t nodes = static_cast<std::int64_t>(layers) * width;
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(fan_in));
  for (int l = 1; l < layers; ++l) {
    const std::int32_t prev_base = static_cast<std::int32_t>((l - 1) * width);
    const std::int32_t base = static_cast<std::int32_t>(l * width);
    for (std::int32_t v = base; v < base + width; ++v) {
      for (int k = 0; k < fan_in; ++k) {
        edges.emplace_back(prev_base + static_cast<std::int32_t>(rng.uniform_int(0, width - 1)),
                           v);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return canonical_from_topology(static_cast<std::int32_t>(nodes), edges, seed);
}

struct Timed {
  double seconds = 0.0;
  std::vector<PassTiming> passes;  ///< of the fastest run
};

Timed schedule_seconds(const TaskGraph& graph, std::int64_t pes, int repeats) {
  MachineConfig machine;
  machine.num_pes = pes;
  Timed best;
  for (int r = 0; r < repeats; ++r) {
    const Stopwatch watch;
    ScheduleResult result = schedule_by_name("streaming-rlx", graph, machine);
    const double t = watch.seconds();
    if (result.makespan <= 0) {
      std::fprintf(stderr, "huge_graph: non-positive makespan\n");
      std::exit(1);
    }
    if (r == 0 || t < best.seconds) best = {t, std::move(result.timings)};
  }
  return best;
}

/// Peak resident set of this process (VmHWM) in MiB; 0 when unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

/// Adds `<phase>_<pass>_seconds` per pass (dashes in pass names become
/// underscores) and `<phase>_vmhwm_mb` to the report, and prints them.
void report_breakdown(BenchReport& report, const std::string& phase, const Timed& timed) {
  std::printf("huge_graph: %s passes:", phase.c_str());
  for (const PassTiming& pass : timed.passes) {
    std::string key = pass.pass;
    std::replace(key.begin(), key.end(), '-', '_');
    report.add(phase + "_" + key + "_seconds", pass.seconds);
    std::printf(" %s %.3fs", pass.pass.c_str(), pass.seconds);
  }
  const double vmhwm = peak_rss_mb();
  report.add(phase + "_vmhwm_mb", vmhwm);
  std::printf("; VmHWM %.0f MB\n", vmhwm);
}

// Process-wide arena heap accounting for the alloc phase.
std::atomic<std::int64_t> g_arena_blocks{0};
std::atomic<std::int64_t> g_arena_bytes{0};
void count_arena_block(std::size_t bytes) noexcept {
  g_arena_blocks.fetch_add(1, std::memory_order_relaxed);
  g_arena_bytes.fetch_add(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
}

}  // namespace

int main() {
  const bool smoke = std::getenv("STS_BENCH_GRAPHS") != nullptr;
  const int repeats = smoke ? 2 : 3;
  const unsigned hw = std::thread::hardware_concurrency();
  BenchReport report("huge_graph");
  report.add("hardware_threads", static_cast<std::int64_t>(hw));
  report.add("smoke", std::string(smoke ? "yes" : "no"));
  bool failed = false;

  // ------------------------------------------------- build the 10^5 workload
  const Stopwatch gen_watch;
  const TaskGraph huge = make_huge_layered(50, 2000, 4, 23);
  report.add("huge_nodes", static_cast<std::int64_t>(huge.node_count()));
  report.add("huge_edges", static_cast<std::int64_t>(huge.edge_count()));
  report.add("huge_gen_seconds", gen_watch.seconds());

  // ---------------------------------------------------------- phase 1: alloc
  {
    Arena::set_heap_hook(&count_arena_block);
    g_arena_blocks.store(0);
    g_arena_bytes.store(0);
    MachineConfig machine;
    machine.num_pes = 64;
    const ScheduleResult result = schedule_by_name("streaming-rlx", huge, machine);
    Arena::set_heap_hook(nullptr);
    const std::int64_t blocks = g_arena_blocks.load();
    constexpr std::int64_t kMaxArenaBlocks = 64;
    report.add("alloc_makespan", result.makespan);
    report.add("alloc_arena_blocks", blocks);
    report.add("alloc_arena_bytes", g_arena_bytes.load());
    report.add("alloc_arena_blocks_max", kMaxArenaBlocks);
    if (blocks > kMaxArenaBlocks) {
      std::fprintf(stderr,
                   "huge_graph: %lld arena blocks for one request exceeds the %lld bound "
                   "(per-node allocations crept back into a hot path?)\n",
                   static_cast<long long>(blocks), static_cast<long long>(kMaxArenaBlocks));
      failed = true;
    }
  }

  // -------------------------------------------------------- phase 2: latency
  {
    const Timed timed = schedule_seconds(huge, 64, repeats);
    const double seconds = timed.seconds;
    constexpr double kMaxSeconds = 1.0;
    report.add("latency_seconds", seconds);
    report.add("latency_seconds_max", kMaxSeconds);
    std::printf("huge_graph: %lld nodes, %.3fs (bound %.2fs)\n",
                static_cast<long long>(huge.node_count()), seconds, kMaxSeconds);
    report_breakdown(report, "latency", timed);
    if (seconds > kMaxSeconds) {
      std::fprintf(stderr, "huge_graph: %.3fs exceeds the %.2fs bound\n", seconds, kMaxSeconds);
      failed = true;
    }
  }

  // ----------------------------------------------------------- phase 3: mega
  if (!smoke) {
    const Stopwatch mega_gen;
    const TaskGraph mega = make_huge_layered(100, 10'000, 3, 29);
    report.add("mega_nodes", static_cast<std::int64_t>(mega.node_count()));
    report.add("mega_edges", static_cast<std::int64_t>(mega.edge_count()));
    report.add("mega_gen_seconds", mega_gen.seconds());
    const Timed timed = schedule_seconds(mega, 256, 1);
    report.add("mega_seconds", timed.seconds);
    std::printf("huge_graph: %lld nodes, %.3fs (reported only)\n",
                static_cast<long long>(mega.node_count()), timed.seconds);
    report_breakdown(report, "mega", timed);
  }

  report.add("status", std::string(failed ? "fail" : "ok"));
  report.write();
  return failed ? 1 : 0;
}
