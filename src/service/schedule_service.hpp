#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "graph/task_graph.hpp"
#include "pipeline/schedule_cache.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "service/backend.hpp"
#include "service/request.hpp"
#include "sim/dataflow_sim.hpp"
#include "support/thread_annotations.hpp"
#include "support/weighted_lru.hpp"

namespace sts {

/// Sizing knobs of a ScheduleService.
struct ServiceConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  std::size_t num_workers = 0;

  /// Total-weight capacity of the service-owned bounded LRU ScheduleCache
  /// (entries weigh their graph's node count; see ScheduleCache).
  std::size_t cache_capacity = ScheduleCache::kDefaultCapacity;

  /// Per-shard queue depth limit; 0 = unbounded (accept everything). With a
  /// bound, a full shard makes a `AdmissionPolicy::kBlock` request block
  /// until a worker drains an entry and a `kReject` request come back with a
  /// typed `Rejected` outcome.
  std::size_t queue_depth = 0;

  /// Entries kept in the base-request registry that delta requests resolve
  /// their `base_key` against (LRU of materialized graphs, keyed by
  /// key_hash(), which a key_digest() parses back to). Every submitted
  /// request is remembered, so any recent request — including a
  /// materialized delta — can serve as a base.
  std::size_t base_registry_capacity = 1024;
};

/// Concurrent scheduling front end: a worker thread pool serving
/// `submit(ScheduleRequest)` envelopes through a bounded, size-aware LRU
/// ScheduleCache.
///
/// Each request is keyed by `ScheduleRequest::key()` and sharded to the
/// worker `key_hash() % num_workers`, so identical scenarios land on the
/// same queue in order and one worker computes each key: N concurrent
/// submissions of the same scenario run the scheduling pipeline exactly
/// once, and every later one finds that immutable result in the cache (on
/// the `submit` fast path or at the worker). The cache only memoizes; the
/// sharding is what makes the computation happen once, so the cache's
/// `races` stays 0 here. Distinct scenarios spread across workers and
/// schedule in parallel. The same keying is what ShardRouter
/// consistent-hashes across several services — this class is the
/// single-process backend of that seam.
///
/// Requests whose result is already cached complete synchronously inside
/// `submit` (the returned future is immediately ready) without touching a
/// worker queue — admission control never refuses a cached answer.
///
/// Admission control: with `ServiceConfig::queue_depth > 0` every shard
/// queue is bounded and `ScheduleRequest::admission` picks the policy on a
/// full shard — `kBlock` applies backpressure (waits on the shard's space
/// condition variable until a worker pops an entry), `kReject` never blocks
/// and instead resolves to a typed `Rejected` outcome carrying the observed
/// depth, for latency-sensitive callers that would rather shed load than
/// wait. A positive `ScheduleRequest::priority` enqueues at the front of its
/// shard (best-effort queue jump).
///
/// A request with `sim` set chains a SimulationPass after scheduling on the
/// worker, so batch sweeps obtain bulk-engine simulated makespans in one
/// hop; its results cache under the sim-options-extended request key, so
/// simulated and plain results never collide.
///
/// Scheduling errors (unknown scheduler name, invalid graph, a simulated
/// schedule that deadlocks) surface as the exception of `Future::get()` —
/// or as `ScheduleResponse::error` through `Admission::wait()` /
/// `schedule()`; the service itself stays healthy. Destruction (or
/// `shutdown()`) drains every queued job before joining the workers, so no
/// future is ever abandoned; submitters blocked on backpressure are woken
/// and throw.
class ScheduleService : public ScheduleBackend {
 public:
  using ResultPtr = ScheduleCache::ResultPtr;

  /// The seam's future/admission types under their historical names.
  using Future = ServiceFuture;
  using Admission = ServiceAdmission;
  using Stats = ServiceStats;

  explicit ScheduleService(ServiceConfig config = {});
  ~ScheduleService() override;

  ScheduleService(const ScheduleService&) = delete;
  ScheduleService& operator=(const ScheduleService&) = delete;

  /// THE submission path: admits one request envelope (moved into the job)
  /// and returns its admission. With `AdmissionPolicy::kBlock` (the default)
  /// the admission is always accepted — a full shard blocks the caller until
  /// a worker drains an entry — so `.future` can be used directly; with
  /// `kReject` a full shard yields `rejected` instead of waiting. Throws
  /// std::runtime_error after shutdown().
  [[nodiscard]] Admission submit(ScheduleRequest request) override
      EXCLUDES(stats_mutex_, bases_mutex_);

  /// Blocks until every accepted job submitted so far has completed.
  void wait_idle() override EXCLUDES(stats_mutex_);

  /// Drains all queued jobs, joins the workers, and rejects further
  /// submissions. Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] Stats stats() const EXCLUDES(stats_mutex_);

  /// One consistent observation: counters, resident cache weight, and the
  /// rendered stats_json document, all from the same stats() snapshot.
  [[nodiscard]] Snapshot stats_snapshot() const override;

  /// Machine-readable JSON rendering of stats() plus cache size and sizing
  /// knobs: one object of scalar keys in the style of the BENCH_*.json bench
  /// reports, plus a single `shard_max_depth` array (per-shard queue
  /// high-water marks; `max_queue_depth` carries the scalar peak for flat
  /// consumers). Keys should stay stable across versions; `schema_version`
  /// counts breaking shape changes and `uptime_seconds` lets scrapes detect
  /// restarts.
  [[nodiscard]] std::string stats_json() const;

  /// Breaking-shape version of the stats_json() document. Bumped when a key
  /// is removed or changes meaning — additions don't count.
  static constexpr std::uint64_t kStatsSchemaVersion = 3;

  /// Renders one Stats snapshot plus sizing knobs in the stats_json() shape
  /// — `stats_json()` is `render_stats_json(stats(), ...)`, and ShardRouter
  /// reuses it so per-backend records come from a single stats() snapshot.
  /// `uptime` is the emitting component's age (seconds since construction).
  [[nodiscard]] static std::string render_stats_json(const Stats& stats, std::size_t workers,
                                                     std::size_t queue_depth_limit,
                                                     std::size_t cache_size,
                                                     std::size_t cache_weight,
                                                     std::size_t cache_capacity, double uptime);

  /// Seconds since this service was constructed (monotonic clock).
  [[nodiscard]] double uptime_seconds() const;

  [[nodiscard]] ScheduleCache& cache() noexcept { return cache_; }
  /// The per-partition fragment cache that multi-partition misses compose from.
  [[nodiscard]] SubgraphCache& subgraph_cache() noexcept { return subgraph_cache_; }
  [[nodiscard]] std::size_t worker_count() const noexcept override { return shards_.size(); }
  [[nodiscard]] std::size_t queue_depth_limit() const noexcept { return queue_depth_; }

 private:
  struct Job {
    ScheduleRequest request;  ///< request.key() is memoized before enqueue
    std::promise<ScheduleResponse> promise;
  };
  struct Shard {
    Mutex mutex;
    CondVar cv;        ///< workers: queue non-empty or stopping
    CondVar space_cv;  ///< producers: queue below the depth limit
    std::deque<Job> queue GUARDED_BY(mutex);
    std::size_t max_depth GUARDED_BY(mutex) = 0;  ///< high-water mark
  };

  [[nodiscard]] ScheduleResult compute_job(const Job& job);
  void worker_loop(Shard& shard) EXCLUDES(stats_mutex_);
  /// Settles `promise` with `response` and counts the completion (failed
  /// when its status is kError) under the same stats_mutex_ hold. The
  /// in-process service never settles a rejection: it refuses synchronously.
  void finish_one(std::promise<ScheduleResponse>& promise, ScheduleResponse response,
                  bool fast_path) EXCLUDES(stats_mutex_);

  /// Remembers `graph` as a possible delta base under the request's
  /// key_hash() (bounded LRU; an already-known hash is just refreshed,
  /// sparing the graph copy on repeated submissions of one scenario). A
  /// miss copies the graph outside the lock, so the copy shares the
  /// request's edge table and holds its own node records; when a concurrent
  /// call inserted the hash first, that entry stays.
  void remember_base(std::uint64_t key_hash, const TaskGraph& graph) EXCLUDES(bases_mutex_);
  /// The base a delta's `base_key` names: the graph remembered under the
  /// hash the digest parses back to, or nullptr for an unknown or malformed
  /// digest.
  [[nodiscard]] std::shared_ptr<const TaskGraph> find_base(std::string_view base_key)
      EXCLUDES(bases_mutex_);

  ScheduleCache cache_;
  SubgraphCache subgraph_cache_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::size_t queue_depth_ = 0;
  std::atomic<bool> stopping_{false};
  const std::chrono::steady_clock::time_point start_time_ = std::chrono::steady_clock::now();

  /// Base-request registry for delta resolution: key_hash() -> materialized
  /// graph, every graph weighing 1, so the capacity counts entries.
  mutable Mutex bases_mutex_;
  WeightedLru<std::uint64_t, std::shared_ptr<const TaskGraph>> bases_ GUARDED_BY(bases_mutex_);

  mutable Mutex stats_mutex_;
  CondVar idle_cv_;  ///< signalled on every job completion/rejection
  /// Cache and shard_max_depth fields filled lazily by stats().
  Stats counters_ GUARDED_BY(stats_mutex_);
};

}  // namespace sts
