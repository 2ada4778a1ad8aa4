#include "service/schedule_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_specs.hpp"
#include "paper_examples.hpp"
#include "pipeline/registry.hpp"
#include "service/backend.hpp"
#include "service/request.hpp"
#include "support/json.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

MachineConfig machine_with(std::int64_t pes) {
  MachineConfig machine;
  machine.num_pes = pes;
  return machine;
}

ScheduleRequest request_for(const TaskGraph& graph, std::string scheduler, std::int64_t pes) {
  ScheduleRequest request;
  request.graph = graph;
  request.scheduler = std::move(scheduler);
  request.machine.num_pes = pes;
  return request;
}

TEST(ScheduleService, MatchesDirectScheduling) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = make_fft(16, 7);
  auto future = service.submit(request_for(g, "streaming-rlx", 16)).future;
  const auto result = future.get();
  ASSERT_NE(result, nullptr);

  const ScheduleResult direct = schedule_by_name("streaming-rlx", g, machine_with(16));
  EXPECT_EQ(result->makespan, direct.makespan);
  EXPECT_EQ(result->buffers->total_capacity, direct.buffers->total_capacity);

  // The completion is counted in the lock hold that settles the future, so
  // the counters are already current here and wait_idle returns at once.
  service.wait_idle();
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ScheduleService, ScheduleReturnsOkResponse) {
  ScheduleService service(ServiceConfig{2, 4096});
  const ScheduleResponse response =
      service.schedule(request_for(testing::figure8_graph(), "streaming-rlx", 8));
  ASSERT_TRUE(response.ok());
  ASSERT_NE(response.result, nullptr);
  EXPECT_GT(response.result->makespan, 0);
  EXPECT_FALSE(response.rejected.has_value());
  EXPECT_TRUE(response.error.empty());

  const std::string json = response.to_json();
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"makespan\": "), std::string::npos) << json;
}

TEST(ScheduleService, ScheduleFoldsErrorsIntoTheResponse) {
  ScheduleService service(ServiceConfig{2, 4096});
  const ScheduleResponse response =
      service.schedule(request_for(testing::figure8_graph(), "no-such-scheduler", 8));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status, ScheduleResponse::Status::kError);
  EXPECT_NE(response.error.find("no-such-scheduler"), std::string::npos) << response.error;
  EXPECT_NE(response.to_json().find("\"status\": \"error\""), std::string::npos);
}

TEST(ScheduleService, SecondSubmissionTakesFastPath) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = testing::figure8_graph();
  const auto first = service.submit(request_for(g, "streaming-rlx", 8)).future.get();
  auto second_future = service.submit(request_for(g, "streaming-rlx", 8)).future;
  // A cached result resolves synchronously inside submit.
  EXPECT_EQ(second_future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(second_future.get().get(), first.get()) << "same immutable result object";
  EXPECT_EQ(service.stats().fast_path_hits, 1u);
}

TEST(ScheduleService, DuplicateSubmissionsComputeOnce) {
  constexpr int kCopies = 24;
  ScheduleService service(ServiceConfig{4, 4096});
  const TaskGraph g = make_cholesky(6, 3);

  std::vector<ScheduleService::Future> futures;
  futures.reserve(kCopies);
  for (int i = 0; i < kCopies; ++i) {
    futures.push_back(service.submit(request_for(g, "streaming-rlx", 16)).future);
  }
  const ScheduleService::ResultPtr first = futures.front().get();
  for (auto& f : futures) {
    if (f.valid()) EXPECT_EQ(f.get().get(), first.get());
  }
  service.wait_idle();

  // Key sharding: one worker computes the scenario once; every other
  // submission is a cache hit, on the submit fast path or at that worker.
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, static_cast<std::uint64_t>(kCopies - 1));
  EXPECT_EQ(stats.cache.races, 0u);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kCopies));
  EXPECT_EQ(stats.failed, 0u);
}

// The exactly-once guarantee under concurrent submitters: 8 threads racing
// the same 3 scenarios into a 4-worker service. Each scenario shards onto one
// worker, so it is computed once, no cache insert ever races, and every
// submitter receives one shared result per scenario.
TEST(ScheduleService, ConcurrentSubmittersComputeEachScenarioOnce) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRepeats = 16;
  ScheduleService service(ServiceConfig{4, 4096});
  // Two multi-component scenarios sharing a component: their workers compose
  // them from the one fragment store, possibly at the same time.
  TaskGraph fft_cholesky;
  testing::append_component(fft_cholesky, make_fft(8, 2), "f");
  testing::append_component(fft_cholesky, make_cholesky(4, 3), "c");
  TaskGraph cholesky_chain;
  testing::append_component(cholesky_chain, make_cholesky(4, 3), "c");
  testing::append_component(cholesky_chain, make_chain(8, 1), "h");
  const std::vector<TaskGraph> graphs = {make_chain(8, 1), make_fft(8, 2), make_cholesky(4, 3),
                                         fft_cholesky, cholesky_chain};

  std::vector<std::vector<ScheduleService::Future>> futures(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &graphs, &start, &mine = futures[t]] {
      start.arrive_and_wait();
      for (std::size_t r = 0; r < kRepeats; ++r) {
        for (const TaskGraph& graph : graphs) {
          mine.push_back(service.submit(request_for(graph, "streaming-rlx", 4)).future);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  std::vector<ScheduleService::ResultPtr> shared(graphs.size());
  for (std::vector<ScheduleService::Future>& mine : futures) {
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const ScheduleService::ResultPtr result = mine[i].get();
      ScheduleService::ResultPtr& first = shared[i % graphs.size()];
      if (first == nullptr) first = result;
      EXPECT_EQ(result, first) << "scenario " << i % graphs.size() << ": one shared result";
    }
  }
  EXPECT_EQ(std::set<ScheduleService::ResultPtr>(shared.begin(), shared.end()).size(),
            graphs.size());
  service.wait_idle();
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, graphs.size());
  EXPECT_EQ(stats.cache.races, 0u);
  EXPECT_EQ(stats.cache.hits, kThreads * kRepeats * graphs.size() - graphs.size());
  EXPECT_EQ(stats.failed, 0u);
  // Only the two composed scenarios touch the fragment store, two partitions
  // each; the shared one is a hit or a miss depending on who got there first.
  EXPECT_EQ(stats.subgraph.fragments_assembled, 4u);
  EXPECT_EQ(stats.subgraph.partition_hits + stats.subgraph.partition_misses, 4u);
}

TEST(ScheduleService, SweepAcrossWorkersMatchesDirect) {
  ScheduleService service(ServiceConfig{4, 1 << 16});
  struct Case {
    TaskGraph graph;
    std::int64_t pes;
  };
  std::vector<Case> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    cases.push_back({make_fft(16, seed), 24});
    cases.push_back({make_gaussian_elimination(8, seed), 16});
    cases.push_back({make_chain(8, seed), 4});
  }

  std::vector<ScheduleService::Future> futures;
  futures.reserve(cases.size());
  for (const Case& c : cases) {
    futures.push_back(service.submit(request_for(c.graph, "streaming-rlx", c.pes)).future);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto result = futures[i].get();
    const ScheduleResult direct =
        schedule_by_name("streaming-rlx", cases[i].graph, machine_with(cases[i].pes));
    EXPECT_EQ(result->makespan, direct.makespan) << "case " << i;
  }
  EXPECT_EQ(service.stats().cache.misses, cases.size());
}

TEST(ScheduleService, PropagatesSchedulerErrorsAndStaysHealthy) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = testing::figure8_graph();

  auto bad = service.submit(request_for(g, "no-such-scheduler", 8)).future;
  EXPECT_THROW((void)bad.get(), std::invalid_argument);

  // The failure is accounted and the service keeps serving.
  service.wait_idle();
  EXPECT_EQ(service.stats().failed, 1u);
  const auto good = service.submit(request_for(g, "streaming-rlx", 8)).future.get();
  EXPECT_GT(good->makespan, 0);
}

TEST(ScheduleService, FailedComputationIsRetriedNotCached) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = testing::figure9_graph1();
  EXPECT_THROW((void)service.submit(request_for(g, "no-such-scheduler", 8)).future.get(),
               std::invalid_argument);
  EXPECT_THROW((void)service.submit(request_for(g, "no-such-scheduler", 8)).future.get(),
               std::invalid_argument);
  service.wait_idle();
  // Both submissions actually attempted the computation: a failure must not
  // poison the cache.
  EXPECT_EQ(service.stats().cache.misses, 2u);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST(ScheduleService, WaitIdleDrainsEverything) {
  ScheduleService service(ServiceConfig{3, 1 << 16});
  constexpr int kJobs = 30;
  std::vector<ScheduleService::Future> futures;
  futures.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(
        service
            .submit(request_for(make_chain(8, static_cast<std::uint64_t>(i)), "streaming-rlx",
                                4))
            .future);
  }
  service.wait_idle();
  const ScheduleService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_GT(f.get()->makespan, 0);
  }
}

TEST(ScheduleService, SettledFutureReadsItsCompletionCounted) {
  // The other direction of WaitIdleDrainsEverything: a caller that sees its
  // future settle must read that completion in stats(), with no wait_idle.
  // Cold jobs settle on the worker thread, racing the caller's read.
  ScheduleService service(ServiceConfig{1});
  constexpr int kRequests = 10000;
  for (int i = 0; i < kRequests; ++i) {
    ScheduleService::Future future =
        service
            .submit(request_for(make_chain(8, static_cast<std::uint64_t>(i)), "streaming-rlx", 4))
            .future;
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    }
    ASSERT_GE(service.stats().completed, static_cast<std::uint64_t>(i) + 1) << "request " << i;
  }
}

TEST(ScheduleService, ShutdownDrainsQueuedJobsAndRejectsNewOnes) {
  std::vector<ScheduleService::Future> futures;
  ScheduleService service(ServiceConfig{1, 4096});
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service
                          .submit(request_for(make_fft(8, static_cast<std::uint64_t>(i)),
                                              "streaming-rlx", 8))
                          .future);
  }
  service.shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_GT(f.get()->makespan, 0) << "queued jobs must be drained, not abandoned";
  }
  EXPECT_THROW((void)service.submit(request_for(make_chain(4, 1), "streaming-rlx", 4)),
               std::runtime_error);
}

TEST(ScheduleService, SimRequestsCacheSeparatelyFromPlain) {
  // Presence of `sim` is part of the request identity: a simulated and a
  // plain request for the same scenario must not share a cache entry.
  ScheduleService service(ServiceConfig{2, 4096});
  ScheduleRequest plain = request_for(testing::figure8_graph(), "streaming-rlx", 8);
  ScheduleRequest simulated = plain;
  simulated.sim = SimOptions{};

  EXPECT_NE(plain.key(), simulated.key());
  const auto plain_result = service.submit(std::move(plain)).future.get();
  const auto sim_result = service.submit(std::move(simulated)).future.get();
  EXPECT_FALSE(plain_result->sim.has_value());
  ASSERT_TRUE(sim_result->sim.has_value());
  EXPECT_NE(plain_result.get(), sim_result.get());
  service.wait_idle();
  EXPECT_EQ(service.stats().simulated, 1u);
}

TEST(ScheduleService, StatsJsonCarriesCacheWeight) {
  ScheduleService service(ServiceConfig{2, 4096});
  const TaskGraph g = testing::figure8_graph();
  (void)service.submit(request_for(g, "streaming-rlx", 8)).future.get();
  service.wait_idle();
  EXPECT_EQ(service.cache().total_weight(), g.node_count());
  const std::string json = service.stats_json();
  EXPECT_NE(json.find("\"cache_weight\": " + std::to_string(g.node_count())),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cache_evicted_weight\": 0"), std::string::npos) << json;
}

TEST(ScheduleService, DefaultsToHardwareConcurrency) {
  ScheduleService service;
  EXPECT_GE(service.worker_count(), 1u);
}

// ---------------------------------------------------------- the stats list
// for_each_stats_counter drives rendering, /stats parsing and the router's
// sums, so these cases go through the list to reach every counter.

/// Every listed counter set to a distinct value, starting at `first`.
ServiceStats distinct_stats(std::uint64_t first) {
  ServiceStats stats;
  for_each_stats_counter([&first](const char*, std::uint64_t& counter) { counter = first++; },
                         stats);
  return stats;
}

TEST(ServiceStatsWire, EveryCounterRoundTripsThroughTheStatsDocument) {
  ServiceStats sent = distinct_stats(1);
  sent.shard_max_depth = {3, 0, 7};
  const JsonDocument document =
      parse_json(ScheduleService::render_stats_json(sent, 3, 8, 5, 40, 100, 1.5));
  const ServiceStats received = service_stats_from_json(document);

  std::set<std::string> names;
  for_each_stats_counter(
      [&names, &document](const char* name, std::uint64_t want, std::uint64_t got) {
        EXPECT_TRUE(names.insert(name).second) << "duplicate wire name " << name;
        EXPECT_NE(document.find(name), nullptr) << name;
        EXPECT_EQ(got, want) << name;
      },
      sent, received);
  EXPECT_EQ(received.shard_max_depth, sent.shard_max_depth);
}

TEST(ServiceStatsWire, MissingMembersReadAsZero) {
  const ServiceStats stats = service_stats_from_json(parse_json("{\"cache_hits\": 4}"));
  for_each_stats_counter(
      [](const char* name, std::uint64_t counter) {
        EXPECT_EQ(counter, std::string(name) == "cache_hits" ? 4u : 0u) << name;
      },
      stats);
  EXPECT_TRUE(stats.shard_max_depth.empty());
}

TEST(ServiceStatsWire, NegativeCounterThrows) {
  ServiceStats stats;
  for_each_stats_counter(
      [](const char* name, std::uint64_t) {
        const std::string document = std::string("{\"") + name + "\": -1}";
        EXPECT_THROW((void)service_stats_from_json(parse_json(document)), std::invalid_argument)
            << name;
      },
      stats);
  EXPECT_THROW((void)service_stats_from_json(parse_json("{\"shard_max_depth\": [1, -1]}")),
               std::invalid_argument);
}

TEST(ServiceStatsWire, AccumulateSumsEveryCounterAndConcatenatesDepths) {
  ServiceStats total = distinct_stats(1);
  total.shard_max_depth = {2};
  ServiceStats more = distinct_stats(100);
  more.shard_max_depth = {5, 1};
  accumulate_service_stats(total, more);

  const ServiceStats first = distinct_stats(1);
  for_each_stats_counter(
      [](const char* name, std::uint64_t sum, std::uint64_t a, std::uint64_t b) {
        EXPECT_EQ(sum, a + b) << name;
      },
      total, first, more);
  EXPECT_EQ(total.shard_max_depth, (std::vector<std::size_t>{2, 5, 1}));
}

}  // namespace
}  // namespace sts
