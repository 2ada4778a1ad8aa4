// Bounded-LRU and single-flight semantics of ScheduleCache, including the
// threaded stress cases the serving layer depends on: exactly one schedule
// computed per unique key under concurrent hammering, exact hit/miss/race
// accounting, and LRU eviction order. (Cache-vs-scheduler integration lives
// in test_pipeline.cpp.)

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
  EXPECT_THROW(cache.set_capacity(0), std::invalid_argument);
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

TEST(ScheduleCacheLru, SetCapacityShrinksAndEvicts) {
  ScheduleCache cache(8);
  std::atomic<int> computed{0};
  for (int i = 0; i < 8; ++i) {
    (void)cache.get_or_compute("key" + std::to_string(i), counted_result(computed, i + 1));
  }
  EXPECT_EQ(cache.size(), 8u);
  cache.set_capacity(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 6u);
  EXPECT_TRUE(cache.contains("key7"));
  EXPECT_TRUE(cache.contains("key6"));
  EXPECT_FALSE(cache.contains("key0"));
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

// The satellite invariant: under concurrent hammering of a small key set,
// every unique key is computed exactly once (single-flight), race losers are
// classified as races or hits — never as misses — and the counters add up to
// exactly one classification per lookup.
TEST(ScheduleCacheSingleFlight, ConcurrentHammeringComputesEachKeyOnce) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  constexpr int kKeys = 4;

  ScheduleCache cache(kKeys);  // large enough that nothing evicts
  std::vector<std::atomic<int>> computed(kKeys);
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
        const auto result = cache.get_or_compute(key, [&computed, k] {
          ++computed[static_cast<std::size_t>(k)];
          // Widen the in-flight window so racers actually pile up.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          ScheduleResult r;
          r.makespan = k + 1;
          return r;
        });
        ASSERT_EQ(result->makespan, k + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(computed[static_cast<std::size_t>(k)].load(), 1) << "key " << k;
  }
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.hits + stats.misses + stats.races,
            static_cast<std::uint64_t>(kThreads) * kIterations)
      << "every lookup classified exactly once";
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
}

// Threaded eviction stress: a key set larger than the capacity, hammered from
// several threads — the bound must hold at every point and the books must
// balance even while single-flight and eviction interleave.
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
  EXPECT_EQ(stats.hits + stats.misses + stats.races,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_GT(stats.evictions, 0u);
}

// Spins (bounded) until `done` holds; false on timeout, so a broken
// single-flight fails the test instead of hanging it.
template <typename Predicate>
bool wait_until(Predicate done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The in-flight table is bucketed by the caller-supplied hash and matched by
// the full key: two distinct keys forced onto one hash, both held in flight
// at once, are two misses, never a race on each other's computation.
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

// The same key twice under the forced hash still single-flights: one miss,
// one race, one computation, one shared result.
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
  EXPECT_TRUE(wait_until([&] { return computed.load() == 1; }));
  std::thread second([&] { b = cache.get_or_compute(kForcedHash, "key", held); });
  EXPECT_TRUE(wait_until([&] { return cache.stats().races == 1; }))
      << "the second caller must join the in-flight computation";
  release.count_down();
  first.join();
  second.join();

  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(a, b) << "both callers share one result";
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.races, 1u);
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

TEST(ScheduleCacheWeighted, SetCapacityShrinksByWeight) {
  ScheduleCache cache(100);
  std::atomic<int> computed{0};
  for (int i = 0; i < 5; ++i) {
    (void)cache.get_or_compute("w10-" + std::to_string(i), counted_result(computed, i), 10);
  }
  EXPECT_EQ(cache.total_weight(), 50u);
  cache.set_capacity(25);
  EXPECT_LE(cache.total_weight(), 25u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.contains("w10-4"));
  EXPECT_TRUE(cache.contains("w10-3"));
  EXPECT_EQ(cache.stats().evicted_weight, 30u);
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

// ---------------------------------------------------------------- ttl expiry
// A ttl of zero makes every resident entry expired on its next probe, which
// turns wall-clock expiry into a deterministic test (no sleeps).

TEST(ScheduleCacheTtl, NoTtlNeverExpires) {
  ScheduleCache cache(8);
  EXPECT_FALSE(cache.ttl().has_value());
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("k", counted_result(computed, 1));
  ASSERT_NE(cache.try_get("k"), nullptr);
  EXPECT_EQ(cache.stats().expired, 0u);
}

TEST(ScheduleCacheTtl, ZeroTtlExpiresOnNextProbe) {
  ScheduleCache cache(8, std::chrono::nanoseconds{0});
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("k", counted_result(computed, 1), 3);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.total_weight(), 3u);

  EXPECT_EQ(cache.try_get("k"), nullptr) << "entry past its ttl must read as absent";
  EXPECT_EQ(cache.size(), 0u) << "the expired probe physically drops the entry";
  EXPECT_EQ(cache.total_weight(), 0u) << "expiry must release the entry's weight";
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.evictions, 0u) << "expiry is not an eviction";
  EXPECT_EQ(stats.hits, 0u);
}

TEST(ScheduleCacheTtl, ExpiredEntryRecomputes) {
  ScheduleCache cache(8, std::chrono::nanoseconds{0});
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("k", counted_result(computed, 1));
  (void)cache.get_or_compute("k", counted_result(computed, 2));
  EXPECT_EQ(computed.load(), 2) << "a lookup that expires the entry is a miss";
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  // One entry dropped by the second probe, plus the re-inserted entry which
  // (zero ttl) is itself already past its ttl at the snapshot.
  EXPECT_EQ(stats.expired, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(ScheduleCacheTtl, ContainsReportsExpiredWithoutErasing) {
  ScheduleCache cache(8, std::chrono::nanoseconds{0});
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("k", counted_result(computed, 1));
  EXPECT_FALSE(cache.contains("k")) << "contains must see through the ttl";
  EXPECT_EQ(cache.size(), 1u) << "const inspection must not mutate the cache";
  // Regression: stats() must agree with what contains() just read — the
  // still-resident entry is past its ttl, so it reports as expired even
  // though no mutating probe has physically dropped it yet.
  EXPECT_EQ(cache.stats().expired, 1u);
}

TEST(ScheduleCacheTtl, LongTtlKeepsEntriesAlive) {
  ScheduleCache cache(8, std::chrono::hours{1});
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("k", counted_result(computed, 1));
  (void)cache.get_or_compute("k", counted_result(computed, 2));
  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().expired, 0u);
}

TEST(ScheduleCacheTtl, SetTtlAppliesToResidentEntries) {
  ScheduleCache cache(8);
  std::atomic<int> computed{0};
  (void)cache.get_or_compute("k", counted_result(computed, 1));
  ASSERT_TRUE(cache.contains("k"));
  cache.set_ttl(std::chrono::nanoseconds{0});
  ASSERT_TRUE(cache.ttl().has_value());
  EXPECT_EQ(cache.try_get("k"), nullptr) << "insertion times predate the ttl change";
  cache.set_ttl(std::nullopt);
  (void)cache.get_or_compute("k", counted_result(computed, 2));
  ASSERT_NE(cache.try_get("k"), nullptr) << "clearing the ttl disables expiry again";
  EXPECT_EQ(computed.load(), 2);
}

}  // namespace
}  // namespace sts
