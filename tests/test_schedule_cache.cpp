// Bounded-LRU semantics of ScheduleCache, including the threaded stress
// cases the serving layer depends on: exact hit/miss/race accounting when
// concurrent callers compute one key twice, one resident result per key, and
// LRU eviction order. (Cache-vs-scheduler integration lives in
// test_pipeline.cpp; exactly-once computation is the service's job and is
// tested in test_service.cpp and test_shard_router.cpp.)

#include "pipeline/schedule_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sts {
namespace {

/// A compute callable producing a distinguishable dummy result and counting
/// its invocations — the schedule pipeline itself is irrelevant here.
std::function<ScheduleResult()> counted_result(std::atomic<int>& counter,
                                               std::int64_t makespan) {
  return [&counter, makespan] {
    ++counter;
    ScheduleResult r;
    r.makespan = makespan;
    return r;
  };
}

TEST(ScheduleCacheLru, RejectsZeroCapacity) {
  EXPECT_THROW(ScheduleCache(0), std::invalid_argument);
  ScheduleCache cache(4);
  EXPECT_EQ(cache.capacity(), 4u);
}

TEST(ScheduleCacheLru, EvictsLeastRecentlyUsed) {
  ScheduleCache cache(3);
  std::atomic<int> computed{0};
  for (const char* key : {"a", "b", "c"}) {
    (void)cache.get_or_compute(key, counted_result(computed, 1));
  }
  // Touch "a": recency order is now a, c, b.
  ASSERT_NE(cache.try_get("a"), nullptr);

  (void)cache.get_or_compute("d", counted_result(computed, 2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.contains("b")) << "b was least recently used";
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_TRUE(cache.contains("d"));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ScheduleCacheLru, GetOrComputeBumpsRecencyLikeTryGet) {
  ScheduleCache cache(2);
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("x", counted_result(computed, 1));
  (void)cache.get_or_compute("y", counted_result(computed, 2));
  (void)cache.get_or_compute("x", counted_result(computed, 3));  // hit, bumps x
  (void)cache.get_or_compute("z", counted_result(computed, 4));  // evicts y
  EXPECT_TRUE(cache.contains("x"));
  EXPECT_FALSE(cache.contains("y"));
  EXPECT_EQ(computed.load(), 3);
}

TEST(ScheduleCacheLru, EvictedKeyRecomputes) {
  ScheduleCache cache(1);
  std::atomic<int> computed{0};
  EXPECT_EQ(cache.get_or_compute("k1", counted_result(computed, 10))->makespan, 10);
  EXPECT_EQ(cache.get_or_compute("k2", counted_result(computed, 20))->makespan, 20);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.get_or_compute("k1", counted_result(computed, 11))->makespan, 11)
      << "evicted entry must be recomputed, not resurrected";
  EXPECT_EQ(computed.load(), 3);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ScheduleCacheLru, TryGetMissesAreNotCountedAsMisses) {
  ScheduleCache cache(4);
  EXPECT_EQ(cache.try_get("absent"), nullptr);
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(ScheduleCacheSingleFlight, ExceptionPropagatesAndKeyRetries) {
  ScheduleCache cache(4);
  std::atomic<int> attempts{0};
  const auto failing = [&attempts]() -> ScheduleResult {
    ++attempts;
    throw std::runtime_error("scheduler exploded");
  };
  EXPECT_THROW((void)cache.get_or_compute("k", failing), std::runtime_error);
  EXPECT_EQ(cache.size(), 0u) << "failures must not be cached";

  std::atomic<int> computed{0};
  EXPECT_EQ(cache.get_or_compute("k", counted_result(computed, 5))->makespan, 5);
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// Concurrent hammering of a small key set with no key sharding in front:
// callers that miss one key at once all compute it, the first insert wins,
// and every later computation of that key keeps the resident result and
// counts one race. Every lookup is a hit or a miss, and every caller of a
// key ends up holding the one resident result.
TEST(ScheduleCacheSingleFlight, ConcurrentHammeringCountsEachDuplicateAsARace) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  constexpr int kKeys = 4;

  ScheduleCache cache(kKeys);  // large enough that nothing evicts
  std::vector<std::atomic<int>> computed(kKeys);
  std::vector<std::vector<ScheduleCache::ResultPtr>> seen(kThreads);
  std::atomic<int> ready{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kIterations; ++i) {
        const int k = (t + i) % kKeys;
        const std::string key = "hot-key-" + std::to_string(k);
        auto result = cache.get_or_compute(key, [&computed, k] {
          ++computed[static_cast<std::size_t>(k)];
          // Widen the compute window so duplicate computations actually occur.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          ScheduleResult r;
          r.makespan = k + 1;
          return r;
        });
        ASSERT_EQ(result->makespan, k + 1);
        seen[static_cast<std::size_t>(t)].push_back(std::move(result));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::uint64_t computations = 0;
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_GE(computed[static_cast<std::size_t>(k)].load(), 1) << "key " << k;
    computations += static_cast<std::uint64_t>(computed[static_cast<std::size_t>(k)].load());
  }
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, computations) << "misses == schedules actually computed";
  EXPECT_EQ(stats.races, computations - kKeys)
      << "every computation but the first insert of its key is a race";
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads) * kIterations)
      << "every lookup classified exactly once";
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  for (const auto& results : seen) {
    for (const ScheduleCache::ResultPtr& result : results) {
      const std::string key = "hot-key-" + std::to_string(result->makespan - 1);
      EXPECT_EQ(result, cache.try_get(key)) << "a caller kept a discarded duplicate";
    }
  }
}

// Threaded eviction stress: a key set larger than the capacity, hammered from
// several threads — the bound must hold at every point and the books must
// balance even while duplicate computations and eviction interleave.
TEST(ScheduleCacheSingleFlight, ConcurrentEvictionKeepsBoundAndBooks) {
  constexpr int kThreads = 6;
  constexpr int kIterations = 40;
  constexpr int kKeys = 12;
  constexpr std::size_t kCapacity = 4;

  ScheduleCache cache(kCapacity);
  std::atomic<int> computed{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const int k = (t * 7 + i) % kKeys;
        const auto result =
            cache.get_or_compute("churn-" + std::to_string(k), counted_result(computed, k + 1));
        ASSERT_EQ(result->makespan, k + 1);
        ASSERT_LE(cache.size(), kCapacity);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_LE(cache.size(), kCapacity);
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(computed.load()))
      << "misses == schedules actually computed";
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_LE(stats.races, stats.misses);
  EXPECT_GT(stats.evictions, 0u);
}

// Spins (bounded) until `done` holds; false on timeout, so a computation
// that never starts fails the test instead of hanging it.
template <typename Predicate>
bool wait_until(Predicate done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Entries are bucketed by the caller-supplied hash and matched by the full
// key: two distinct keys forced onto one hash, both computed at once, are two
// misses and two residents, never a race on each other's result.
TEST(ScheduleCacheSingleFlight, ForcedHashCollisionKeepsInFlightKeysApart) {
  constexpr std::uint64_t kForcedHash = 0x5eed;
  ScheduleCache cache(8);
  std::atomic<int> started{0};
  std::latch release(1);
  const auto held = [&started, &release](std::int64_t makespan) {
    return [&started, &release, makespan] {
      ++started;
      release.wait();
      ScheduleResult r;
      r.makespan = makespan;
      return r;
    };
  };

  ScheduleCache::ResultPtr a;
  ScheduleCache::ResultPtr b;
  std::thread first([&] { a = cache.get_or_compute(kForcedHash, "key-a", held(1)); });
  std::thread second([&] { b = cache.get_or_compute(kForcedHash, "key-b", held(2)); });
  EXPECT_TRUE(wait_until([&] { return started.load() == 2; }))
      << "both computations must be in flight at once";
  release.count_down();
  first.join();
  second.join();

  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->makespan, 1);
  EXPECT_EQ(b->makespan, 2);
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.races, 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.try_get(kForcedHash, "key-a")->makespan, 1);
  EXPECT_EQ(cache.try_get(kForcedHash, "key-b")->makespan, 2);
}

// The same key computed twice at once under the forced hash: two misses, and
// the second insert keeps the first one's result and counts one race, so
// both callers share one resident result.
TEST(ScheduleCacheSingleFlight, ForcedHashSameKeyStillRaces) {
  constexpr std::uint64_t kForcedHash = 0x5eed;
  ScheduleCache cache(8);
  std::atomic<int> computed{0};
  std::latch release(1);
  const auto held = [&computed, &release] {
    ++computed;
    release.wait();
    ScheduleResult r;
    r.makespan = 7;
    return r;
  };

  ScheduleCache::ResultPtr a;
  ScheduleCache::ResultPtr b;
  std::thread first([&] { a = cache.get_or_compute(kForcedHash, "key", held); });
  std::thread second([&] { b = cache.get_or_compute(kForcedHash, "key", held); });
  EXPECT_TRUE(wait_until([&] { return computed.load() == 2; }))
      << "both callers must miss and compute";
  release.count_down();
  first.join();
  second.join();

  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b) << "both callers share the one resident result";
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.races, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.try_get(kForcedHash, "key"), a);
}

// ------------------------------------------------------ size-aware admission
// Capacity is a TOTAL WEIGHT bound (schedule entries weigh their graph's
// node count); the generic weight-1 default above degenerates to the classic
// entry-count LRU, these cases pin down the weighted behavior.

TEST(ScheduleCacheWeighted, CapacityBoundsTotalWeightNotEntryCount) {
  ScheduleCache cache(10);
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("w4-a", counted_result(computed, 1), 4);
  (void)cache.get_or_compute("w4-b", counted_result(computed, 2), 4);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.total_weight(), 8u);

  // Weight 4 more would exceed 10: the LRU entry (w4-a) must go.
  (void)cache.get_or_compute("w4-c", counted_result(computed, 3), 4);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.total_weight(), 8u);
  EXPECT_FALSE(cache.contains("w4-a"));
  EXPECT_TRUE(cache.contains("w4-b"));
  EXPECT_TRUE(cache.contains("w4-c"));

  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.evicted_weight, 4u);
}

TEST(ScheduleCacheWeighted, LightEntriesPackUntilTheWeightBound) {
  ScheduleCache cache(6);
  std::atomic<int> computed{0};
  for (int i = 0; i < 6; ++i) {
    (void)cache.get_or_compute("w1-" + std::to_string(i), counted_result(computed, i), 1);
  }
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache.total_weight(), 6u);
  // One heavy insert displaces exactly enough light entries to fit.
  (void)cache.get_or_compute("w4", counted_result(computed, 9), 4);
  EXPECT_EQ(cache.total_weight(), 6u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.contains("w4"));
  EXPECT_FALSE(cache.contains("w1-0"));
  EXPECT_FALSE(cache.contains("w1-3"));
  EXPECT_TRUE(cache.contains("w1-4"));
  EXPECT_EQ(cache.stats().evicted_weight, 4u);
}

TEST(ScheduleCacheWeighted, OversizeEntryIsDroppedImmediately) {
  ScheduleCache cache(4);
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("small", counted_result(computed, 1), 2);
  const auto big = cache.get_or_compute("big", counted_result(computed, 2), 10);
  EXPECT_EQ(big->makespan, 2) << "the caller still gets the computed result";
  EXPECT_FALSE(cache.contains("big")) << "an entry that can never fit is not cached";
  EXPECT_EQ(cache.total_weight(), 2u);
  EXPECT_TRUE(cache.contains("small")) << "dropping the oversize entry spares residents";

  // Requesting it again recomputes (and drops again): 2 misses, no hits.
  (void)cache.get_or_compute("big", counted_result(computed, 3), 10);
  EXPECT_EQ(computed.load(), 3);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_GE(cache.stats().evicted_weight, 20u);
}

TEST(ScheduleCacheWeighted, ZeroWeightIsClampedToOne) {
  ScheduleCache cache(2);
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("z1", counted_result(computed, 1), 0);
  (void)cache.get_or_compute("z2", counted_result(computed, 2), 0);
  EXPECT_EQ(cache.total_weight(), 2u);
  (void)cache.get_or_compute("z3", counted_result(computed, 3), 0);
  EXPECT_EQ(cache.size(), 2u) << "weight-0 entries must still occupy capacity";
}

}  // namespace
}  // namespace sts
