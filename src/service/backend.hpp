#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/schedule_cache.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "service/request.hpp"

namespace sts {

class JsonValue;

/// Counters of one scheduling backend. Shared by every implementation of the
/// `ScheduleBackend` seam: an in-process ScheduleService fills them from its
/// own atomics, a RemoteBackend parses them out of the server's `/stats`
/// document (`service_stats_from_json`), and a ShardRouter sums them across
/// its fleet (`accumulate_service_stats`).
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< all submission attempts, rejections included
  std::uint64_t completed = 0;  ///< finished jobs, failures included
  std::uint64_t failed = 0;     ///< jobs whose future holds an exception
  std::uint64_t rejected = 0;   ///< kReject refusals on a full shard
  std::uint64_t simulated = 0;  ///< accepted submissions requesting simulation
  std::uint64_t fast_path_hits = 0;  ///< completed synchronously in submit()
  std::vector<std::size_t> shard_max_depth;  ///< per-shard queue high-water mark
  ScheduleCache::Stats cache;
  /// Fragment-cache counters. Only graphs of two or more connected
  /// partitions are composed from fragments, so one-partition traffic (the
  /// paper topologies) leaves these and `canon` at zero.
  SubgraphCache::Stats subgraph;
  /// Canonicalization-memo counters of the subgraph cache: partitions whose
  /// structural refinement was skipped vs. refined from scratch.
  PartitionCanonMemo::Stats canon;
};

/// The one list of ServiceStats counters and their `/stats` wire names, in
/// document order. Rendering (`append_stats_counters`), parsing
/// (`service_stats_from_json`) and summing (`accumulate_service_stats`) all
/// walk it, so a new counter takes one line here plus its row in the README
/// stats table (tools/lint_sts.py checks the table against this list).
/// `visit(name, counter...)` receives the same counter of every stats object
/// passed, so one call can pair up counters across objects.
template <typename Visit, typename... Stats>
constexpr void for_each_stats_counter(Visit&& visit, Stats&... stats) {
  visit("submitted", stats.submitted...);
  visit("completed", stats.completed...);
  visit("failed", stats.failed...);
  visit("rejected", stats.rejected...);
  visit("simulated", stats.simulated...);
  visit("fast_path_hits", stats.fast_path_hits...);
  visit("cache_hits", stats.cache.hits...);
  visit("cache_misses", stats.cache.misses...);
  visit("cache_races", stats.cache.races...);
  visit("cache_evictions", stats.cache.evictions...);
  visit("cache_evicted_weight", stats.cache.evicted_weight...);
  visit("partition_hits", stats.subgraph.partition_hits...);
  visit("partition_misses", stats.subgraph.partition_misses...);
  visit("fragments_assembled", stats.subgraph.fragments_assembled...);
  visit("delta_invalidated", stats.subgraph.delta_invalidated...);
  visit("canon_hits", stats.canon.hits...);
  visit("canon_misses", stats.canon.misses...);
}

/// Appends `, "<name>": <value>` for every listed counter of `stats`.
void append_stats_counters(std::string& json, const ServiceStats& stats);

/// Sums every counter of `from` into `into`; shard high-water marks are
/// concatenated (they are per-shard gauges, not additive).
void accumulate_service_stats(ServiceStats& into, const ServiceStats& from);

/// Parses a ScheduleService::render_stats_json-shaped document back into
/// counters — how a RemoteBackend turns one `/stats` fetch into the same
/// `ServiceStats` an in-process backend reports. Missing members read as
/// zero (a newer client must keep aggregating an older server's document);
/// a member present with the wrong type, or a negative counter, throws.
[[nodiscard]] ServiceStats service_stats_from_json(const JsonValue& json);

/// Future over a request's `ScheduleResponse` with the classic throwing
/// contract: `get()` returns the result or throws `std::invalid_argument` /
/// `std::runtime_error` built from the transported error detail — thrown
/// locally on the calling thread, so no exception object ever crosses
/// threads. An asynchronously-delivered rejection throws std::runtime_error
/// naming the shard; callers that want it typed use `response()`.
class ServiceFuture {
 public:
  ServiceFuture() = default;
  explicit ServiceFuture(std::future<ScheduleResponse> response)
      : response_(std::move(response)) {}

  [[nodiscard]] bool valid() const noexcept { return response_.valid(); }
  template <typename Rep, typename Period>
  [[nodiscard]] std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& timeout) const {
    return response_.wait_for(timeout);
  }

  /// Blocks; returns the result or throws on a failed or rejected job.
  /// Consumes the future; call once.
  [[nodiscard]] std::shared_ptr<const ScheduleResult> get() {
    return response_.get().result_or_throw();
  }

  /// Blocks; the response itself, never throwing. Consumes the future; call
  /// once.
  [[nodiscard]] ScheduleResponse response() { return response_.get(); }

 private:
  std::future<ScheduleResponse> response_;
};

/// Outcome of `ScheduleBackend::submit`: exactly one of `future` (valid iff
/// accepted) or `rejected` is populated. A remote backend always "accepts"
/// at submit time — transport happens asynchronously — and surfaces a
/// server-side rejection through the future's response instead.
struct ServiceAdmission {
  ServiceFuture future;
  std::optional<Rejected> rejected;

  [[nodiscard]] bool accepted() const noexcept { return !rejected.has_value(); }

  /// The synchronous rejection, or else the future's response (blocking).
  /// Consumes the future; call once.
  [[nodiscard]] ScheduleResponse wait() {
    return rejected ? ScheduleResponse::refusal(*rejected) : future.response();
  }
};

/// THE backend seam of the serving stack: anything that can resolve a
/// `ScheduleRequest` envelope into a `ScheduleResponse`. ShardRouter
/// consistent-hashes request keys across a fleet of these without knowing
/// whether each one is an in-process `ScheduleService` worker pool, a
/// `RemoteBackend` speaking HTTP/1.1 to an `sts-serve` process, or a test
/// double — the envelope round-trips losslessly through JSON, so the seam
/// carries across the process boundary unchanged.
class ScheduleBackend {
 public:
  /// One consistent observation of a backend: the counters, the resident
  /// result-cache weight, and the rendered stats document all come from the
  /// same snapshot (for a remote backend, one `/stats` fetch), so an
  /// aggregator's totals always equal the sum of the documents it emits.
  struct Snapshot {
    ServiceStats stats;
    std::size_t cache_weight = 0;  ///< resident result-cache weight
    std::string json;              ///< render_stats_json-shaped document
  };

  virtual ~ScheduleBackend() = default;

  /// Admits one request envelope (moved into the job) and returns its
  /// admission; see ServiceAdmission for the acceptance contract.
  [[nodiscard]] virtual ServiceAdmission submit(ScheduleRequest request) = 0;

  /// Synchronous convenience: `submit(request).wait()`.
  [[nodiscard]] ScheduleResponse schedule(ScheduleRequest request);

  /// Blocks until every job accepted by this backend so far has settled.
  /// Must return even when the backend is unhealthy (a dead remote settles
  /// its in-flight futures with transport errors rather than hanging).
  virtual void wait_idle() = 0;

  [[nodiscard]] virtual Snapshot stats_snapshot() const = 0;

  /// Convenience over stats_snapshot() when only the counters are needed.
  [[nodiscard]] ServiceStats stats() const { return stats_snapshot().stats; }

  /// Worker threads resolving requests for this backend (remote: as
  /// reported by the server, falling back to the client connection count).
  [[nodiscard]] virtual std::size_t worker_count() const noexcept = 0;
};

}  // namespace sts
