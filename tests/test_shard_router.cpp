// ShardRouter coverage: deterministic consistent-hash routing, aggregate
// stats invariants across backends, exactly-once computation under
// concurrent submitters, the consistent-hashing property (a router over one
// more backend only moves keys to that backend), and backend-annotated
// rejections (made deterministic with a latch-gated scheduler that parks a
// backend's single worker).

#include "service/shard_router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/passes.hpp"
#include "pipeline/registry.hpp"
#include "service/request.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

ScheduleRequest chain_request(int tasks, std::uint64_t seed, std::int64_t pes = 4) {
  ScheduleRequest request;
  request.graph = make_chain(tasks, seed);
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = pes;
  return request;
}

RouterConfig router_config(std::size_t backends, std::size_t workers_each = 1) {
  RouterConfig config;
  config.num_backends = backends;
  config.backend.num_workers = workers_each;
  config.backend.cache_capacity = 1 << 16;
  return config;
}

TEST(ShardRouter, RejectsDegenerateConfigs) {
  RouterConfig zero_backends = router_config(1);
  zero_backends.num_backends = 0;
  EXPECT_THROW(ShardRouter{zero_backends}, std::invalid_argument);
}

TEST(ShardRouter, RoutingIsDeterministicAndCoversAllBackends) {
  ShardRouter router(router_config(4));
  ASSERT_EQ(router.backend_count(), 4u);

  std::set<std::size_t> used;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ScheduleRequest request = chain_request(6, seed);
    const std::size_t backend = router.backend_for(request);
    ASSERT_LT(backend, 4u);
    used.insert(backend);
    // Same request (and an identity-equal copy) always routes identically.
    EXPECT_EQ(router.backend_for(request), backend);
    EXPECT_EQ(router.backend_for(chain_request(6, seed)), backend);
    EXPECT_EQ(router.backend_for_key(request.key()), backend);
  }
  EXPECT_EQ(used.size(), 4u) << "64 random keys must touch every backend";
}

TEST(ShardRouter, SubmitLandsOnTheRoutedBackend) {
  ShardRouter router(router_config(4));
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleRequest request = chain_request(6, seed);
    const std::size_t expected = router.backend_for(request);
    const std::string key = request.key();
    const auto result = router.submit(std::move(request)).future.get();
    EXPECT_GT(result->makespan, 0);
    router.wait_idle();
    EXPECT_TRUE(router.local_backend(expected).cache().contains(key))
        << "seed " << seed << ": result cached on a different backend than routed";
  }
}

TEST(ShardRouter, AggregateStatsSumOverBackends) {
  constexpr std::uint64_t kScenarios = 24;
  ShardRouter router(router_config(4));
  std::vector<ScheduleService::Future> futures;
  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    futures.push_back(router.submit(chain_request(6, seed)).future);
    // Every scenario twice: the duplicate hits its backend's cache.
    futures.push_back(router.submit(chain_request(6, seed)).future);
  }
  for (auto& f : futures) EXPECT_GT(f.get()->makespan, 0);
  router.wait_idle();

  const ShardRouter::Stats stats = router.stats();
  ASSERT_EQ(stats.backends.size(), 4u);
  ScheduleService::Stats manual;
  for (const ScheduleService::Stats& backend : stats.backends) {
    manual.submitted += backend.submitted;
    manual.completed += backend.completed;
    manual.failed += backend.failed;
    manual.cache.misses += backend.cache.misses;
    manual.cache.hits += backend.cache.hits;
    manual.cache.races += backend.cache.races;
  }
  EXPECT_EQ(stats.total.submitted, manual.submitted);
  EXPECT_EQ(stats.total.submitted, 2 * kScenarios);
  EXPECT_EQ(stats.total.completed, manual.completed);
  EXPECT_EQ(stats.total.failed, 0u);
  EXPECT_EQ(stats.total.cache.misses, kScenarios)
      << "each unique scenario schedules exactly once across the fleet";
  EXPECT_EQ(stats.total.cache.hits, kScenarios);
  EXPECT_EQ(stats.total.cache.races, 0u);

  const std::string json = router.stats_json();
  EXPECT_NE(json.find("\"backends\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"submitted\": " + std::to_string(2 * kScenarios)), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"per_backend\": [{"), std::string::npos) << json;
}

// Exactly-once computation comes from key sharding: every submission of one
// scenario routes to one backend and, there, to one worker. 8 threads racing
// the same 3 scenarios therefore compute each once, never race in a cache,
// and all receive one shared result per scenario.
TEST(ShardRouter, ConcurrentSubmittersComputeEachScenarioOnce) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRepeats = 16;
  constexpr std::uint64_t kScenarios = 3;
  ShardRouter router(router_config(4));

  std::vector<std::vector<ScheduleService::Future>> futures(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&router, &start, &mine = futures[t]] {
      start.arrive_and_wait();
      for (std::size_t r = 0; r < kRepeats; ++r) {
        for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
          mine.push_back(router.submit(chain_request(6, seed)).future);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  std::vector<ScheduleService::ResultPtr> shared(kScenarios);
  for (std::vector<ScheduleService::Future>& mine : futures) {
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const ScheduleService::ResultPtr result = mine[i].get();
      ScheduleService::ResultPtr& first = shared[i % kScenarios];
      if (first == nullptr) first = result;
      EXPECT_EQ(result, first) << "scenario " << i % kScenarios << ": one shared result";
    }
  }
  EXPECT_EQ(std::set<ScheduleService::ResultPtr>(shared.begin(), shared.end()).size(),
            kScenarios);
  router.wait_idle();
  const ShardRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.total.cache.misses, kScenarios);
  EXPECT_EQ(stats.total.cache.races, 0u);
  EXPECT_EQ(stats.total.cache.hits, kThreads * kRepeats * kScenarios - kScenarios);
  EXPECT_EQ(stats.total.failed, 0u);
}

TEST(ShardRouter, GrowingThePoolOnlyMovesKeysToTheNewBackend) {
  ShardRouter before(router_config(3));
  ShardRouter after(router_config(4));

  std::size_t moved = 0;
  constexpr std::uint64_t kKeys = 200;
  for (std::uint64_t seed = 1; seed <= kKeys; ++seed) {
    const ScheduleRequest request = chain_request(6, seed);
    const std::size_t old_backend = before.backend_for(request);
    const std::size_t new_backend = after.backend_for(request);
    if (new_backend != old_backend) {
      EXPECT_EQ(new_backend, 3u)
          << "a key may only move to the backend that joined, never between survivors";
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u) << "the new backend must take over part of the key space";
  EXPECT_LT(moved, kKeys / 2)
      << "consistent hashing moves ~1/N of the keys, not a wholesale reshuffle";
}

// ---------------------------------------------------------- rejected routing

constexpr char kRouterGatedName[] = "test-router-gated";

struct RouterGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  int arrived = 0;

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void wait_arrived(int n) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return arrived >= n; });
  }
};

class RouterGatePass final : public Pass {
 public:
  explicit RouterGatePass(RouterGate* gate) : gate_(gate) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "test-router-gate"; }
  void run(ScheduleContext&) const override {
    std::unique_lock<std::mutex> lock(gate_->mutex);
    ++gate_->arrived;
    gate_->cv.notify_all();
    gate_->cv.wait_for(lock, std::chrono::seconds(10), [&] { return gate_->open; });
  }

 private:
  RouterGate* gate_;
};

class RouterGatedScheduler final : public Scheduler {
 public:
  explicit RouterGatedScheduler(RouterGate* gate) : gate_(gate) {}
  [[nodiscard]] std::string_view name() const noexcept override { return kRouterGatedName; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "latch-gated list scheduler (router test only)";
  }
  [[nodiscard]] Pipeline build_pipeline(const MachineConfig&) const override {
    Pipeline pipeline;
    pipeline.emplace<RouterGatePass>(gate_);
    pipeline.emplace<ListSchedulePass>();
    pipeline.emplace<MetricsPass>();
    return pipeline;
  }

 private:
  RouterGate* gate_;
};

TEST(ShardRouter, RejectionCarriesTheBackendIndex) {
  RouterGate gate;
  SchedulerRegistry::instance().add(
      kRouterGatedName, [&gate] { return std::make_unique<RouterGatedScheduler>(&gate); });

  {
    RouterConfig config = router_config(3);
    config.backend.queue_depth = 1;
    ShardRouter router(config);

    // Find three gated scenarios that route to the same backend: one to park
    // its single worker, one to fill its one-slot queue, one to be refused.
    const auto gated = [](std::uint64_t seed) {
      ScheduleRequest request;
      request.graph = make_chain(6, seed);
      request.scheduler = kRouterGatedName;
      request.machine.num_pes = 4;
      return request;
    };
    const std::size_t target = router.backend_for(gated(1));
    std::vector<std::uint64_t> same_backend{1};
    for (std::uint64_t seed = 2; same_backend.size() < 3; ++seed) {
      if (router.backend_for(gated(seed)) == target) same_backend.push_back(seed);
    }

    std::vector<ScheduleService::Future> futures;
    futures.push_back(router.submit(gated(same_backend[0])).future);
    gate.wait_arrived(1);  // the backend's worker is parked
    futures.push_back(router.submit(gated(same_backend[1])).future);

    ScheduleRequest refused_request = gated(same_backend[2]);
    refused_request.admission = AdmissionPolicy::kReject;
    ScheduleService::Admission refused = router.submit(std::move(refused_request));
    ASSERT_FALSE(refused.accepted());
    EXPECT_EQ(refused.rejected->backend, target);
    EXPECT_EQ(refused.rejected->limit, 1u);
    const std::string json = refused.wait().to_json();
    EXPECT_NE(json.find("\"backend\": " + std::to_string(target)), std::string::npos) << json;

    gate.release();
    router.wait_idle();
    for (auto& f : futures) EXPECT_GT(f.get()->makespan, 0);
    EXPECT_EQ(router.stats().total.rejected, 1u);
  }
  SchedulerRegistry::instance().remove(kRouterGatedName);
}

}  // namespace
}  // namespace sts
