// One scheduling request at 10^5..10^6-node scale. Four phases:
//
//   identity — full-result fingerprints at lanes {2, 4, auto} x every
//              registered scheduler on a medium layered graph must equal the
//              serial fingerprint bit-for-bit. Hard gate on every host: the
//              parallel paths are only allowed to be faster, never different.
//   alloc    — arena heap-block audit of one 10^5-node request: scheduling
//              must cost at most STS_HUGE_MAX_ARENA_BLOCKS (default 64)
//              arena blocks, i.e. O(log n) heap traffic instead of per-node
//              allocations. Hard gate on every host.
//   latency  — best-of-N streaming-rlx schedule latency on the 10^5-node
//              graph at 1 lane, gated at 1.0 s on every host: heap-ordered
//              ready sets keep the partitioner at O((N+E) log N). The
//              4-lane time is reported beside it, ungated.
//   mega     — one 10^6-node schedule at auto lanes, reported only; skipped
//              in smoke mode (STS_BENCH_GRAPHS set) where it would dominate
//              the job's wall time.
//
// Graphs come from a bounded fan-in layered generator (each node samples a
// constant number of predecessors), so building a 10^6-node topology is
// O(nodes), unlike LayeredSpec's per-pair coin flips. Writes
// BENCH_huge_graph.json; exits non-zero on any gate failure.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "support/arena.hpp"
#include "support/parallel.hpp"
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

std::int64_t env_int(const char* name, std::int64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const std::int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return fallback;
}

std::uint64_t fingerprint_at(const std::string& scheduler, const TaskGraph& graph,
                             std::int64_t pes, std::int64_t lanes) {
  MachineConfig machine;
  machine.num_pes = pes;
  machine.intra_threads = lanes;
  return result_fingerprint(schedule_by_name(scheduler, graph, machine));
}

double schedule_seconds(const TaskGraph& graph, std::int64_t pes, std::int64_t lanes,
                        int repeats) {
  MachineConfig machine;
  machine.num_pes = pes;
  machine.intra_threads = lanes;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const Stopwatch watch;
    const ScheduleResult result = schedule_by_name("streaming-rlx", graph, machine);
    const double t = watch.seconds();
    if (result.makespan <= 0) {
      std::fprintf(stderr, "huge_graph: non-positive makespan at lanes=%lld\n",
                   static_cast<long long>(lanes));
      std::exit(1);
    }
    if (r == 0 || t < best) best = t;
  }
  return best;
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
  report.add("pool_workers", static_cast<std::int64_t>(TaskPool::global().worker_count()));
  report.add("smoke", std::string(smoke ? "yes" : "no"));
  bool failed = false;

  // ------------------------------------------------------- phase 1: identity
  {
    const TaskGraph medium = make_huge_layered(12, 60, 3, 17);
    std::int64_t mismatches = 0;
    std::int64_t combos = 0;
    for (const std::string& scheduler : SchedulerRegistry::instance().names()) {
      std::uint64_t serial = 0;
      try {
        serial = fingerprint_at(scheduler, medium, 16, 1);
      } catch (const std::invalid_argument&) {
        continue;  // scheduler rejects this graph class regardless of lanes
      }
      for (const std::int64_t lanes : {2, 4, 0}) {
        ++combos;
        if (fingerprint_at(scheduler, medium, 16, lanes) != serial) {
          ++mismatches;
          std::fprintf(stderr, "huge_graph: fingerprint mismatch: %s lanes=%lld\n",
                       scheduler.c_str(), static_cast<long long>(lanes));
        }
      }
    }
    report.add("identity_combos", combos);
    report.add("identity_mismatches", mismatches);
    if (combos < 9 || mismatches != 0) failed = true;
  }

  // ------------------------------------------------- build the 10^5 workload
  const Stopwatch gen_watch;
  const TaskGraph huge = make_huge_layered(50, 2000, 4, 23);
  report.add("huge_nodes", static_cast<std::int64_t>(huge.node_count()));
  report.add("huge_edges", static_cast<std::int64_t>(huge.edge_count()));
  report.add("huge_gen_seconds", gen_watch.seconds());

  // ---------------------------------------------------------- phase 2: alloc
  {
    Arena::set_heap_hook(&count_arena_block);
    g_arena_blocks.store(0);
    g_arena_bytes.store(0);
    MachineConfig machine;
    machine.num_pes = 64;
    machine.intra_threads = 4;
    const ScheduleResult result = schedule_by_name("streaming-rlx", huge, machine);
    Arena::set_heap_hook(nullptr);
    const std::int64_t blocks = g_arena_blocks.load();
    const std::int64_t max_blocks = env_int("STS_HUGE_MAX_ARENA_BLOCKS", 64);
    report.add("alloc_makespan", result.makespan);
    report.add("alloc_arena_blocks", blocks);
    report.add("alloc_arena_bytes", g_arena_bytes.load());
    report.add("alloc_arena_blocks_max", max_blocks);
    if (blocks > max_blocks) {
      std::fprintf(stderr,
                   "huge_graph: %lld arena blocks for one request exceeds the %lld bound "
                   "(per-node allocations crept back into a hot path?)\n",
                   static_cast<long long>(blocks), static_cast<long long>(max_blocks));
      failed = true;
    }
  }

  // -------------------------------------------------------- phase 3: latency
  {
    const double t1 = schedule_seconds(huge, 64, 1, repeats);
    const double t4 = schedule_seconds(huge, 64, 4, repeats);
    constexpr double kMaxSeconds = 1.0;
    report.add("latency_seconds_1lane", t1);
    report.add("latency_seconds_4lane", t4);
    report.add("latency_seconds_max", kMaxSeconds);
    std::printf("huge_graph: %lld nodes, 1-lane %.3fs (bound %.2fs), 4-lane %.3fs (ungated)\n",
                static_cast<long long>(huge.node_count()), t1, kMaxSeconds, t4);
    if (t1 > kMaxSeconds) {
      std::fprintf(stderr, "huge_graph: 1-lane %.3fs exceeds the %.2fs bound\n", t1,
                   kMaxSeconds);
      failed = true;
    }
  }

  // ----------------------------------------------------------- phase 4: mega
  if (!smoke) {
    const Stopwatch mega_gen;
    const TaskGraph mega = make_huge_layered(100, 10'000, 3, 29);
    report.add("mega_nodes", static_cast<std::int64_t>(mega.node_count()));
    report.add("mega_edges", static_cast<std::int64_t>(mega.edge_count()));
    report.add("mega_gen_seconds", mega_gen.seconds());
    report.add("mega_seconds_auto", schedule_seconds(mega, 256, 0, 1));
  }

  report.add("status", std::string(failed ? "fail" : "ok"));
  report.write();
  return failed ? 1 : 0;
}
