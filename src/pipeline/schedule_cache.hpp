#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "pipeline/scheduler.hpp"
#include "support/hash.hpp"
#include "support/thread_annotations.hpp"
#include "support/weighted_lru.hpp"

namespace sts {

/// Canonical cache key of a bare scheduling query: the scheduler name, the
/// machine config, and the graph's canonical_fingerprint (the binary normal
/// form of graph/serialization.cpp — identical structure and volumes produce
/// identical keys regardless of node names). This is the unversioned core;
/// the serving layer derives its full key (schema version + this + optional
/// sim options) through ScheduleRequest::key() in service/request.hpp.
[[nodiscard]] std::string canonical_cache_key(const TaskGraph& graph,
                                              std::string_view scheduler,
                                              const MachineConfig& machine);

/// Appends canonical_cache_key(graph, scheduler, machine) to `out`, writing
/// the graph fingerprint in place: one buffer, no intermediate copy of a
/// multi-megabyte key.
void append_canonical_cache_key(std::string& out, const TaskGraph& graph,
                                std::string_view scheduler, const MachineConfig& machine);

/// Memoizes full pipeline results keyed by the canonical graph+config hash,
/// in the spirit of the program caches of dataflow runtimes: repeated
/// queries on identical workloads skip partitioning, scheduling, and FIFO
/// sizing entirely and return a shared immutable result. Hash collisions are
/// disambiguated with the full key, so a hit is always exact.
///
/// Bounded and size-aware: every entry carries a weight (for schedule
/// results, the graph's node count — large graphs cost proportionally more
/// memory to hold and more time to recompute) and `capacity()` bounds the
/// TOTAL WEIGHT, not the entry count. Inserting past the cap evicts
/// least-recently-used entries until the weight fits (counted in
/// `Stats::evictions` / `Stats::evicted_weight`); an entry heavier than the
/// whole capacity is refused at admission (it can never fit, and admitting
/// it would churn out every resident — the compute's caller still gets its
/// result, the cache just will not hold it), so memory stays bounded under
/// sustained traffic with an unbounded key universe. Generic
/// `get_or_compute` callers default to weight 1, which degenerates to the
/// classic entry-count LRU.
///
/// The cache only memoizes. A miss computes outside the cache lock, so
/// concurrent misses on distinct keys never serialize; two callers that miss
/// the same key at once both compute it, the first to finish inserts, and
/// the other returns the resident result and counts a `race` (a duplicate
/// computation). Computing each key once is the caller's job:
/// ScheduleService shards every key onto one worker, so it never races.
/// Every lookup is a hit or a miss, `misses` equals the number of schedules
/// actually computed, and `races <= misses`. A compute that throws
/// propagates to its caller and caches nothing, so the next request retries.
class ScheduleCache {
 public:
  using ResultPtr = std::shared_ptr<const ScheduleResult>;

  struct Stats {
    std::uint64_t hits = 0;       ///< completed entry found in the cache
    std::uint64_t misses = 0;     ///< caller computed the result (== schedules run)
    std::uint64_t races = 0;      ///< misses whose key a concurrent caller inserted first
    std::uint64_t evictions = 0;  ///< entries dropped by the weight bound
    std::uint64_t evicted_weight = 0;  ///< total weight of those dropped entries
  };

  /// Default total-weight bound: with schedule entries weighing their graph's
  /// node count (typically 10^2..10^3), this holds on the order of the old
  /// 4096-entry default for mid-sized graphs.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  /// Throws std::invalid_argument on zero capacity.
  explicit ScheduleCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the cached result for (graph, scheduler, machine), computing
  /// and inserting it through the global SchedulerRegistry on a miss. The
  /// entry weighs the graph's node count.
  [[nodiscard]] ResultPtr get_or_schedule(const TaskGraph& graph, std::string_view scheduler,
                                          const MachineConfig& machine) EXCLUDES(mutex_);

  /// Core lookup under an arbitrary precomputed key: returns the cached
  /// result, or runs `compute` outside the cache lock and caches its result
  /// with the given admission weight (clamped to >= 1). When a concurrent
  /// caller inserted the key first, returns that resident result instead.
  [[nodiscard]] ResultPtr get_or_compute(std::string key,
                                         const std::function<ScheduleResult()>& compute,
                                         std::size_t weight = 1) EXCLUDES(mutex_);

  /// As above, with the key's hash supplied by the caller (the serving layer
  /// passes ScheduleRequest::key_hash(), so a large key is hashed once per
  /// request, not once per probe). Every call for one key must pass the same
  /// hash — fnv1a64(key), which the unhashed overloads compute. Entries are
  /// bucketed by the hash and matched by the full key, so distinct keys
  /// sharing a hash never alias.
  [[nodiscard]] ResultPtr get_or_compute(std::uint64_t hash, std::string key,
                                         const std::function<ScheduleResult()>& compute,
                                         std::size_t weight = 1) EXCLUDES(mutex_);

  /// Non-blocking probe: the completed entry for `key` (bumping its recency
  /// and counting a hit), or nullptr. Absence is not counted as a miss —
  /// callers fall through to get_or_compute, which classifies the lookup.
  [[nodiscard]] ResultPtr try_get(std::string_view key) EXCLUDES(mutex_);

  /// try_get with the key's hash supplied (same contract as the hashed
  /// get_or_compute).
  [[nodiscard]] ResultPtr try_get(std::uint64_t hash, std::string_view key) EXCLUDES(mutex_);

  /// True if a completed entry for `key` is cached. No recency bump and no
  /// stats: an inspection hook for tests and monitoring.
  [[nodiscard]] bool contains(std::string_view key) const EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);  ///< resident entry count
  /// Resident weight, <= capacity().
  [[nodiscard]] std::size_t total_weight() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const EXCLUDES(mutex_);  ///< total-weight bound

  /// Drops all completed entries and resets stats. A computation in progress
  /// inserts its result afterwards.
  void clear() EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  WeightedLru<std::string, ResultPtr> lru_ GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace sts
