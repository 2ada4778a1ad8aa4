// Differential guarantee of the intra-request parallelism work: for every
// scheduler, every paper topology, and a sweep of fuzzed layered graphs, the
// full ScheduleResult produced at lane counts {2, 4, 8} (and auto) must be
// bit-identical — same fingerprint, see result_fingerprint.hpp — to the
// serial (intra_threads = 1) result. Plus unit coverage of the Parallel
// runtime itself (chunk coverage, exception propagation, nested regions)
// and of the wave-parallel rank/level kernels.
//
// The suites are named Parallel* so the CI ThreadSanitizer job's -R filter
// picks them up: the fork-join handshake of TaskPool runs under TSan here.

#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/heft.hpp"
#include "baseline/list_scheduler.hpp"
#include "core/optimal_partition.hpp"
#include "graph/algorithms.hpp"
#include "paper_examples.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "service/schedule_service.hpp"
#include "support/workspace.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

constexpr std::int64_t kLaneSweep[] = {2, 4, 8, 0};  // 0 = auto/hardware

// ------------------------------------------------------------ runtime units

TEST(ParallelRuntime, LaneResolution) {
  EXPECT_EQ(Parallel().lanes(), 1);
  EXPECT_TRUE(Parallel().serial());
  EXPECT_EQ(Parallel(1).lanes(), 1);
  EXPECT_GE(Parallel(0).lanes(), 2) << "auto must engage the pool (>= 1 worker + caller)";
  EXPECT_GE(Parallel(64).lanes(), 2);
  EXPECT_LE(Parallel(64).lanes(), TaskPool::global().worker_count() + 1)
      << "lanes are clamped to the pool size";
  EXPECT_EQ(Parallel(2).lanes(), 2);
}

TEST(ParallelRuntime, ForRangeRunsEveryIndexExactlyOnce) {
  for (const std::int64_t lanes : kLaneSweep) {
    const Parallel parallel(lanes);
    constexpr std::int64_t kN = 10'007;  // prime: uneven chunk boundaries
    std::vector<std::atomic<int>> touched(kN);
    parallel.for_range(kN, 16, [&](std::int64_t begin, std::int64_t end) {
      ASSERT_LE(0, begin);
      ASSERT_LE(begin, end);
      ASSERT_LE(end, kN);
      for (std::int64_t i = begin; i < end; ++i) {
        touched[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(touched[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelRuntime, ForRangeRespectsGrain) {
  const Parallel parallel(8);
  std::atomic<int> chunks{0};
  parallel.for_range(100, 64, [&](std::int64_t begin, std::int64_t end) {
    ++chunks;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(chunks.load(), 1) << "n < 2 * grain must run as one inline chunk";
}

TEST(ParallelRuntime, ExceptionPropagatesAndPoolStaysUsable) {
  const Parallel parallel(4);
  EXPECT_THROW(parallel.for_range(10'000, 1,
                                  [](std::int64_t begin, std::int64_t) {
                                    if (begin >= 0) throw std::runtime_error("chunk boom");
                                  }),
               std::runtime_error);
  // The pool must have fully settled: an immediate next region works.
  std::atomic<std::int64_t> sum{0};
  parallel.for_range(1'000, 1, [&](std::int64_t begin, std::int64_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1'000);
}

TEST(ParallelRuntime, NestedRegionsRunInlineWithoutDeadlock) {
  const Parallel outer(4);
  std::atomic<std::int64_t> total{0};
  outer.for_range(64, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      // A nested region (from a pool worker, or while the pool is busy)
      // must fall back to an inline sweep instead of waiting on the pool.
      Parallel(4).for_range(100, 1, [&](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 64 * 100);
}

// ------------------------------------------------- wave-parallel primitives

TEST(ParallelWaves, TopologicalWavesPartitionRespectsEdges) {
  const TaskGraph g = make_gaussian_elimination(6, 11);
  const TopoWaves waves = topological_waves(g);
  ASSERT_EQ(waves.order.size(), static_cast<std::size_t>(g.node_count()));
  ASSERT_GE(waves.wave_count(), 1u);
  // wave_of[v]: index of the wave containing v; every edge must point to a
  // strictly later wave.
  std::vector<std::size_t> wave_of(waves.order.size());
  for (std::size_t w = 0; w + 1 < waves.offsets.size(); ++w) {
    for (std::size_t i = waves.offsets[w]; i < waves.offsets[w + 1]; ++i) {
      wave_of[static_cast<std::size_t>(waves.order[i])] = w;
    }
  }
  for (const Edge& e : g.edges()) {
    EXPECT_LT(wave_of[static_cast<std::size_t>(e.src)], wave_of[static_cast<std::size_t>(e.dst)]);
  }
  // Reverse waves: every edge points to a strictly later reverse-wave of its
  // source, i.e. successors settle first.
  const TopoWaves reverse = topological_waves(g, /*reverse=*/true);
  std::vector<std::size_t> rev_wave_of(reverse.order.size());
  for (std::size_t w = 0; w + 1 < reverse.offsets.size(); ++w) {
    for (std::size_t i = reverse.offsets[w]; i < reverse.offsets[w + 1]; ++i) {
      rev_wave_of[static_cast<std::size_t>(reverse.order[i])] = w;
    }
  }
  for (const Edge& e : g.edges()) {
    EXPECT_LT(rev_wave_of[static_cast<std::size_t>(e.dst)],
              rev_wave_of[static_cast<std::size_t>(e.src)]);
  }
}

TEST(ParallelWaves, RankAndLevelKernelsMatchSerialAtEveryLaneCount) {
  const TaskGraph graphs[] = {testing::figure8_graph(), testing::buffer_split_example(),
                              make_fft(16, 3), make_cholesky(4, 5)};
  for (const TaskGraph& g : graphs) {
    const std::vector<Rational> levels = node_levels(g);
    const std::vector<std::int64_t> bl = bottom_levels(g);
    const HeterogeneousSystem sys = HeterogeneousSystem::homogeneous(4);
    const std::vector<double> ranks = upward_ranks(g, sys);
    for (const std::int64_t lanes : kLaneSweep) {
      Workspace ws(lanes);
      EXPECT_EQ(node_levels(g, &ws), levels);
      EXPECT_EQ(bottom_levels(g, &ws), bl);
      EXPECT_EQ(upward_ranks(g, sys, &ws), ranks) << "double ops must be bit-identical";
    }
  }
}

// --------------------------------------------------- end-to-end differential

std::uint64_t fingerprint_at(const std::string& scheduler, const TaskGraph& graph,
                             std::int64_t pes, std::int64_t lanes) {
  MachineConfig machine;
  machine.num_pes = pes;
  machine.intra_threads = lanes;
  return result_fingerprint(schedule_by_name(scheduler, graph, machine));
}

TEST(ParallelScheduleDifferential, PaperTopologiesBitIdenticalAcrossLanes) {
  const struct {
    const char* name;
    TaskGraph graph;
  } cases[] = {
      {"figure8", testing::figure8_graph()},
      {"figure9-1", testing::figure9_graph1()},
      {"figure9-2", testing::figure9_graph2()},
      {"buffer-split", testing::buffer_split_example()},
      {"fft16", make_fft(16, 7)},
      {"gaussian6", make_gaussian_elimination(6, 7)},
      {"cholesky4", make_cholesky(4, 7)},
  };
  const std::vector<std::string> schedulers = SchedulerRegistry::instance().names();
  ASSERT_GE(schedulers.size(), 5u);
  for (const auto& c : cases) {
    for (const std::string& scheduler : schedulers) {
      for (const std::int64_t pes : {2, 8}) {
        std::uint64_t serial = 0;
        try {
          serial = fingerprint_at(scheduler, c.graph, pes, 1);
        } catch (const std::invalid_argument&) {
          // Scheduler/graph combination is out of scope serially (e.g. the
          // CSDF analysis rejects buffer nodes); it must stay out of scope —
          // with the same refusal — at every lane count.
          for (const std::int64_t lanes : kLaneSweep) {
            EXPECT_THROW((void)fingerprint_at(scheduler, c.graph, pes, lanes),
                         std::invalid_argument)
                << c.name << " / " << scheduler << " / lanes=" << lanes;
          }
          continue;
        }
        for (const std::int64_t lanes : kLaneSweep) {
          EXPECT_EQ(fingerprint_at(scheduler, c.graph, pes, lanes), serial)
              << c.name << " / " << scheduler << " / pes=" << pes << " / lanes=" << lanes;
        }
      }
    }
  }
}

TEST(ParallelScheduleDifferential, FuzzedLayeredGraphsBitIdenticalAcrossLanes) {
  const std::vector<std::string> schedulers = SchedulerRegistry::instance().names();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const LayeredSpec spec{/*layers=*/8, /*width=*/10, /*edge_probability=*/0.3,
                           /*max_skip=*/2};
    const TaskGraph g = make_random_layered(spec, seed);
    for (const std::string& scheduler : schedulers) {
      std::uint64_t serial = 0;
      try {
        serial = fingerprint_at(scheduler, g, 6, 1);
      } catch (const std::invalid_argument&) {
        continue;  // combination out of scope serially; covered above
      }
      for (const std::int64_t lanes : {4, 0}) {
        EXPECT_EQ(fingerprint_at(scheduler, g, 6, lanes), serial)
            << "seed=" << seed << " / " << scheduler << " / lanes=" << lanes;
      }
    }
  }
}

TEST(ParallelScheduleDifferential, SimulatedRequestsBitIdenticalAcrossLanes) {
  // End-to-end through the envelope + service, exercising the bulk-advance
  // candidate prefilter: per-request intra_threads, separate services so the
  // lane-4 run actually computes instead of hitting the lane-1 cache entry.
  const TaskGraph g = make_fft(16, 13);
  const auto run = [&](std::int64_t lanes) {
    ScheduleService service(ServiceConfig{/*num_workers=*/2});
    ScheduleRequest request;
    request.graph = g;
    request.scheduler = "streaming-rlx";
    request.machine.num_pes = 8;
    request.sim = SimOptions{};
    request.intra_threads = lanes;
    const ScheduleResponse response = service.schedule(std::move(request));
    EXPECT_TRUE(response.ok()) << response.error;
    return result_fingerprint(*response.result);
  };
  const std::uint64_t serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(0), serial);
}

TEST(ParallelScheduleDifferential, OptimalPartitionSearchMatchesSerial) {
  // Small graphs only — the search space is exponential (see the NP-hardness
  // note in optimal_partition.hpp); these stay in the thousands of
  // candidates. Also exercised capped, where the enumeration-order winner
  // and the explored count must survive batching exactly.
  const TaskGraph graphs[] = {testing::figure8_graph(),
                              make_random_layered({4, 2, 0.4, 1}, 2)};
  for (const TaskGraph& g : graphs) {
    for (const std::int64_t pes : {2, 3}) {
      for (const std::int64_t max_candidates : {std::int64_t{40}, std::int64_t{2'000'000}}) {
        const OptimalPartitionResult serial = optimal_partition_exhaustive(g, pes, max_candidates);
        for (const std::int64_t lanes : kLaneSweep) {
          Workspace ws(lanes);
          const OptimalPartitionResult par =
              optimal_partition_exhaustive(g, pes, max_candidates, &ws);
          EXPECT_EQ(par.makespan, serial.makespan);
          EXPECT_EQ(par.explored, serial.explored);
          EXPECT_EQ(par.exhausted, serial.exhausted);
          EXPECT_EQ(par.partition.blocks, serial.partition.blocks)
              << "first-strict-minimum winner must not depend on lanes=" << lanes;
          EXPECT_EQ(par.partition.block_of, serial.partition.block_of);
        }
      }
    }
  }
}

// ------------------------------------------------------- envelope plumbing

TEST(ParallelRequestEnvelope, IntraThreadsRoundTripsAndStaysOutOfTheKey) {
  ScheduleRequest request;
  request.graph = testing::figure8_graph();
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = 4;
  const std::string base_key = request.key();

  ScheduleRequest hinted = request;
  hinted.intra_threads = 4;
  EXPECT_EQ(hinted.key(), base_key) << "a pure execution knob must not split the cache";

  const ScheduleRequest parsed = ScheduleRequest::from_json(hinted.to_json());
  ASSERT_TRUE(parsed.intra_threads.has_value());
  EXPECT_EQ(*parsed.intra_threads, 4);
  EXPECT_EQ(parsed.key(), base_key);

  const ScheduleRequest unhinted = ScheduleRequest::from_json(request.to_json());
  EXPECT_FALSE(unhinted.intra_threads.has_value());

  EXPECT_THROW((void)ScheduleRequest::from_json(
                   R"({"schema_version": 1, "scheduler": "streaming-rlx",
                       "graph": {"generator": "chain", "param": 4, "seed": 1},
                       "intra_threads": -1})"),
               std::invalid_argument);
}

TEST(ParallelRequestEnvelope, MachineRejectsNegativeLanes) {
  MachineConfig machine;
  machine.num_pes = 4;
  machine.intra_threads = -1;
  EXPECT_THROW((void)schedule_by_name("streaming-rlx", testing::figure8_graph(), machine),
               std::invalid_argument);
  EXPECT_THROW(ScheduleService(ServiceConfig{1, 1024, 0, /*intra_threads=*/-2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sts
