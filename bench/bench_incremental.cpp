// Incremental rescheduling at 10^5-node scale. Three phases:
//
//   identity — schedule_with_subgraph_cache (cold AND fully warm) must equal
//              the plain schedule_by_name result_fingerprint bit-for-bit for
//              every registered scheduler on a multi-component graph. Hard
//              gate on every host: fragment assembly is only allowed to be
//              faster, never different.
//   delta    — a 1-node edit (retuned exit output) against a warm fragment
//              cache on a ~10^5-node / ~100-partition graph must reschedule
//              only the touched partition: best-of-N delta latency gates at
//              10 times faster than the cold whole-graph schedule.
//   stream   — a request stream where consecutive graphs share 90% of their
//              partitions (9 of 10 components from a common pool, 1 unique)
//              must run 3 times faster with the fragment cache than
//              scheduling each graph whole — the regime whole-graph caching
//              cannot help (every request key is new).
//
// Smoke mode (STS_BENCH_GRAPHS set) shrinks the workloads so CI finishes in
// seconds. Fixed per-request costs dominate there, so the two speed gates
// take the smoke workload's own floors, 2x (delta) and 1.2x (stream), which
// still catch a fragment cache that composes nothing (~1x); the identity
// gates are the same at both sizes. Writes BENCH_incremental.json; exits
// non-zero on any gate failure.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "graph/graph_edit.hpp"
#include "graph/serialization.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace sts;
using bench::BenchReport;
using bench::Stopwatch;

/// Bounded fan-in layered component (same shape as bench_huge_graph's
/// generator: O(layers * width * fan_in) to build).
TaskGraph make_component(int layers, int width, int fan_in, std::uint64_t seed) {
  Prng rng(seed ^ 0x5851f42d4c957f2dULL);
  const auto nodes = static_cast<std::int32_t>(layers * width);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(fan_in));
  for (int l = 1; l < layers; ++l) {
    const auto prev_base = static_cast<std::int32_t>((l - 1) * width);
    const auto base = static_cast<std::int32_t>(l * width);
    for (std::int32_t v = base; v < base + width; ++v) {
      for (int k = 0; k < fan_in; ++k) {
        edges.emplace_back(prev_base + static_cast<std::int32_t>(rng.uniform_int(0, width - 1)),
                           v);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return canonical_from_topology(nodes, edges, seed);
}

/// Appends `part` to `g` as an independent connected component, preserving
/// kinds, declared outputs, volumes, and edge insertion order — so the same
/// component embedded in two different graphs yields the same canonical
/// partition form (the fragment-sharing premise of the stream phase).
void append_component(TaskGraph& g, const TaskGraph& part) {
  const auto base = static_cast<NodeId>(g.node_count());
  for (NodeId v = 0; static_cast<std::size_t>(v) < part.node_count(); ++v) {
    switch (part.kind(v)) {
      case NodeKind::kSource:
        g.add_source(part.declared_output(v));
        break;
      case NodeKind::kCompute: {
        const NodeId nv = g.add_compute();
        if (part.declared_output(v) > 0) g.declare_output(nv, part.declared_output(v));
        break;
      }
      case NodeKind::kBuffer: {
        const NodeId nv = g.add_buffer();
        if (part.declared_output(v) > 0) g.declare_output(nv, part.declared_output(v));
        break;
      }
      case NodeKind::kSink:
        g.add_sink();
        break;
    }
  }
  for (const Edge& edge : part.edges()) {
    g.add_edge(base + edge.src, base + edge.dst, edge.volume);
  }
}

/// One-node retune: rescale the declared output of the first exit compute
/// node. Canonicity-safe (no out-edge volume must agree) and touches exactly
/// one partition.
std::vector<GraphEdit> retune_exit(const TaskGraph& g, std::int64_t factor) {
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.node_count(); ++v) {
    if (g.kind(v) == NodeKind::kCompute && g.out_degree(v) == 0 && g.declared_output(v) > 0) {
      return {GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, v, -1, -1,
                       g.declared_output(v) * factor, ""}};
    }
  }
  std::fprintf(stderr, "incremental: graph has no exit compute node\n");
  std::exit(1);
}

}  // namespace

int main() {
  const bool smoke = std::getenv("STS_BENCH_GRAPHS") != nullptr;
  const int repeats = smoke ? 2 : 3;
  BenchReport report("incremental");
  report.add("smoke", std::string(smoke ? "yes" : "no"));
  bool failed = false;

  MachineConfig machine;
  machine.num_pes = 64;

  // ------------------------------------------------------- phase 1: identity
  {
    TaskGraph medium;
    for (int c = 0; c < 6; ++c) append_component(medium, make_component(6, 8, 2, 40 + c));
    std::int64_t combos = 0;
    std::int64_t mismatches = 0;
    for (const std::string& scheduler : SchedulerRegistry::instance().names()) {
      std::uint64_t cold = 0;
      try {
        cold = result_fingerprint(schedule_by_name(scheduler, medium, machine));
      } catch (const std::exception&) {
        continue;  // scheduler precondition rejects this graph class
      }
      ++combos;
      SubgraphCache cache;
      const std::uint64_t assembled =
          result_fingerprint(schedule_with_subgraph_cache(scheduler, medium, machine, cache));
      const std::uint64_t warm =
          result_fingerprint(schedule_with_subgraph_cache(scheduler, medium, machine, cache));
      if (assembled != cold || warm != cold) {
        ++mismatches;
        std::fprintf(stderr, "incremental: fingerprint mismatch for %s (cold %016llx vs %016llx/%016llx)\n",
                     scheduler.c_str(), static_cast<unsigned long long>(cold),
                     static_cast<unsigned long long>(assembled),
                     static_cast<unsigned long long>(warm));
      }
    }
    report.add("identity_schedulers", combos);
    report.add("identity_mismatches", mismatches);
    if (combos < 4 || mismatches != 0) failed = true;
  }

  // --------------------------------------------- build the ~10^5 delta graph
  const int big_components = smoke ? 10 : 100;
  const int big_layers = smoke ? 5 : 25;
  const int big_width = smoke ? 8 : 40;
  const Stopwatch gen_watch;
  TaskGraph big;
  for (int c = 0; c < big_components; ++c) {
    append_component(big, make_component(big_layers, big_width, 3, 1000 + c));
  }
  report.add("delta_nodes", static_cast<std::int64_t>(big.node_count()));
  report.add("delta_edges", static_cast<std::int64_t>(big.edge_count()));
  report.add("delta_partitions", static_cast<std::int64_t>(big_components));
  report.add("delta_gen_seconds", gen_watch.seconds());

  // ---------------------------------------------------------- phase 2: delta
  {
    // Cold: what a whole-graph schedule of this request costs.
    double cold = 0.0;
    for (int r = 0; r < repeats; ++r) {
      const Stopwatch watch;
      const ScheduleResult result = schedule_by_name("streaming-rlx", big, machine);
      const double t = watch.seconds();
      if (result.makespan <= 0) {
        std::fprintf(stderr, "incremental: non-positive cold makespan\n");
        return 1;
      }
      if (r == 0 || t < cold) cold = t;
    }

    // Warm the fragment cache, then time 1-node-edit deltas. Each repeat uses
    // a fresh retune factor so it really reschedules one partition (repeating
    // one factor would measure a 100% hit, not a delta).
    SubgraphCache cache;
    const ScheduleResult base_result =
        schedule_with_subgraph_cache("streaming-rlx", big, machine, cache);
    if (result_fingerprint(base_result) !=
        result_fingerprint(schedule_by_name("streaming-rlx", big, machine))) {
      std::fprintf(stderr, "incremental: assembled big-graph schedule differs from cold\n");
      return 1;
    }
    double delta = 0.0;
    double materialize = 0.0;
    std::uint64_t edit_fp = 0;
    for (int r = 0; r < repeats; ++r) {
      // Materialize the edited graph (and its lazy adjacency CSR) outside the
      // delta timer: the cold baseline above schedules a CSR-warm graph, so
      // the delta side must start from the same footing for the ratio to
      // compare scheduling work, not one-time graph construction. The
      // materialization cost is reported separately below.
      const Stopwatch mat_watch;
      const TaskGraph edited = apply_graph_edits(big, retune_exit(big, r + 2));
      (void)edited.profiles();
      const double mt = mat_watch.seconds();
      if (r == 0 || mt < materialize) materialize = mt;
      const Stopwatch watch;
      const ScheduleResult result =
          schedule_with_subgraph_cache("streaming-rlx", edited, machine, cache, /*delta=*/true);
      const double t = watch.seconds();
      edit_fp = result_fingerprint(result);
      if (r == 0 || t < delta) delta = t;
      // Every edited variant must still match its own cold schedule.
      if (edit_fp != result_fingerprint(schedule_by_name("streaming-rlx", edited, machine))) {
        std::fprintf(stderr, "incremental: delta schedule differs from cold at factor %d\n",
                     r + 2);
        return 1;
      }
    }
    const SubgraphCache::Stats stats = cache.stats();
    const double speedup = delta > 0.0 ? cold / delta : 0.0;
    const double speedup_min = smoke ? 2.0 : 10.0;
    report.add("delta_cold_seconds", cold);
    report.add("delta_edit_seconds", delta);
    report.add("delta_materialize_seconds", materialize);
    report.add("delta_speedup", speedup);
    report.add("delta_speedup_min", speedup_min);
    report.add("delta_partition_hits", static_cast<std::int64_t>(stats.partition_hits));
    report.add("delta_invalidated", static_cast<std::int64_t>(stats.delta_invalidated));
    std::printf("incremental: %lld nodes, cold %.3fs, 1-node delta %.4fs, speedup %.1fx\n",
                static_cast<long long>(big.node_count()), cold, delta, speedup);
    if (speedup < speedup_min) {
      std::fprintf(stderr, "incremental: delta speedup %.2fx below the %.2fx gate\n", speedup,
                   speedup_min);
      failed = true;
    }
    if (stats.delta_invalidated != static_cast<std::uint64_t>(repeats)) {
      std::fprintf(stderr, "incremental: expected %d invalidated partitions, saw %llu\n",
                   repeats, static_cast<unsigned long long>(stats.delta_invalidated));
      failed = true;
    }
  }

  // --------------------------------------------------------- phase 3: stream
  {
    // A pool of shared components; each stream request takes 9 of them plus
    // one unique component, so consecutive requests share 90% of their
    // partitions while every whole-graph request key is new.
    const int pool_size = 10;
    const int stream_len = smoke ? 8 : 24;
    const int comp_layers = smoke ? 4 : 10;
    const int comp_width = smoke ? 6 : 24;
    std::vector<TaskGraph> pool;
    pool.reserve(pool_size);
    for (int c = 0; c < pool_size; ++c) pool.push_back(make_component(comp_layers, comp_width, 3, 7000 + c));
    std::vector<TaskGraph> stream;
    stream.reserve(static_cast<std::size_t>(stream_len));
    for (int i = 0; i < stream_len; ++i) {
      TaskGraph g;
      for (int k = 0; k < 9; ++k) append_component(g, pool[static_cast<std::size_t>((i + k) % pool_size)]);
      append_component(g, make_component(comp_layers, comp_width, 3, 9000 + i));
      stream.push_back(std::move(g));
    }

    double whole = 0.0;  // whole-graph scheduling: the no-fragment-cache cost
    {
      const Stopwatch watch;
      for (const TaskGraph& g : stream) {
        if (schedule_by_name("streaming-rlx", g, machine).makespan <= 0) {
          std::fprintf(stderr, "incremental: stream cold makespan <= 0\n");
          return 1;
        }
      }
      whole = watch.seconds();
    }
    double cached = 0.0;
    SubgraphCache cache;
    {
      const Stopwatch watch;
      for (const TaskGraph& g : stream) {
        if (schedule_with_subgraph_cache("streaming-rlx", g, machine, cache).makespan <= 0) {
          std::fprintf(stderr, "incremental: stream cached makespan <= 0\n");
          return 1;
        }
      }
      cached = watch.seconds();
    }
    const SubgraphCache::Stats stats = cache.stats();
    const double ratio = cached > 0.0 ? whole / cached : 0.0;
    const double ratio_min = smoke ? 1.2 : 3.0;
    report.add("stream_requests", stream_len);
    report.add("stream_whole_seconds", whole);
    report.add("stream_cached_seconds", cached);
    report.add("stream_speedup", ratio);
    report.add("stream_speedup_min", ratio_min);
    report.add("stream_partition_hits", static_cast<std::int64_t>(stats.partition_hits));
    report.add("stream_partition_misses", static_cast<std::int64_t>(stats.partition_misses));
    std::printf(
        "incremental: %d-request stream (90%% shared), whole %.3fs, fragment-cached %.3fs, "
        "speedup %.1fx\n",
        stream_len, whole, cached, ratio);
    if (ratio < ratio_min) {
      std::fprintf(stderr, "incremental: stream speedup %.2fx below the %.2fx gate\n", ratio,
                   ratio_min);
      failed = true;
    }
  }

  report.add("status", std::string(failed ? "fail" : "ok"));
  report.write();
  return failed ? 1 : 0;
}
