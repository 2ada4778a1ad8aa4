#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/backend.hpp"
#include "service/request.hpp"
#include "service/schedule_service.hpp"

namespace sts {

/// Sizing knobs of a ShardRouter, read once at construction.
struct RouterConfig {
  /// Number of backends to own. Must be >= 1.
  std::size_t num_backends = 2;

  /// Configuration applied to every backend service (ignored by a custom
  /// `backend_factory` unless it chooses to use it).
  ServiceConfig backend;

  /// Optional factory for backend `index`. Unset (the default), every
  /// backend is an in-process `ScheduleService(backend)`; set, the router
  /// can mix in-process services, `RemoteBackend`s speaking to `sts-serve`
  /// processes, and test doubles — routing, stats aggregation, and drain
  /// are identical either way. Called once per index during construction;
  /// must not return nullptr.
  std::function<std::shared_ptr<ScheduleBackend>(std::size_t index)> backend_factory;
};

/// Thin routing front end that partitions the request-key space across N
/// `ScheduleBackend`s with a consistent-hash ring (the ROADMAP's
/// cross-process sharding seam, now actually crossing processes: by default
/// every backend is an in-process `ScheduleService`, but
/// `RouterConfig::backend_factory` can supply `RemoteBackend`s speaking
/// HTTP/1.1 to `sts-serve` processes — the router only ever touches a
/// backend through `submit(ScheduleRequest)`, a serializable envelope, so
/// the mix is invisible to callers).
///
/// Routing: each backend owns `kVirtualNodes` points on a 64-bit ring,
/// placed at `fnv1a64("backend <i> vnode <j>")`; a request routes to the
/// owner of the first ring point at or after `request.key_hash()`
/// (wrapping), and a delta request by the hash its `base_key` digest names.
/// Identical requests therefore always land on the same backend, whose own
/// key-sharding then computes each of them once. A router over N+1
/// backends sends a key elsewhere than a router over N only when the added
/// backend claims it, so growing a fleet keeps every other key's backend and
/// its warm cache.
///
/// `submit` forwards the envelope and annotates a `Rejected` outcome with
/// the backend index. `stats()` / `stats_json()` aggregate across backends.
///
/// Concurrency: the ring and the backends are fixed at construction, so
/// routing takes no lock and every method may be called from any thread; a
/// submit blocked on one backend's backpressure never stalls the others.
class ShardRouter {
 public:
  /// Ring points per backend. More points smooth the key-space split at the
  /// cost of a larger (still tiny) routing table; 64 keeps the imbalance of
  /// a random key set within a few percent.
  static constexpr std::size_t kVirtualNodes = 64;

  /// Throws std::invalid_argument on zero backends.
  explicit ShardRouter(RouterConfig config = {});

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Routes the request to its backend and forwards to
  /// `ScheduleBackend::submit`. A synchronously rejected admission carries
  /// the backend index in `rejected->backend` (a rejection a remote backend
  /// delivers asynchronously through the settled future keeps whatever the
  /// server recorded — the router never sees it).
  [[nodiscard]] ServiceAdmission submit(ScheduleRequest request);

  /// Synchronous convenience: `submit(request).wait()`.
  [[nodiscard]] ScheduleResponse schedule(ScheduleRequest request);

  /// The backend a request (or a raw request key) routes to. Deterministic:
  /// depends only on the key and the backend count / ring layout.
  [[nodiscard]] std::size_t backend_for(const ScheduleRequest& request) const;
  [[nodiscard]] std::size_t backend_for_key(std::string_view key) const;

  [[nodiscard]] std::size_t backend_count() const noexcept { return backends_.size(); }

  /// Direct access to one backend through the seam (tests, per-backend
  /// stats inspection).
  [[nodiscard]] ScheduleBackend& backend(std::size_t index);

  /// `backend(index)` downcast to the in-process service (tests, cache
  /// inspection). Throws std::invalid_argument when that backend is not a
  /// ScheduleService (e.g. a RemoteBackend — its cache lives in another
  /// process).
  [[nodiscard]] ScheduleService& local_backend(std::size_t index);

  /// Blocks until every backend is idle.
  void wait_idle();

  struct Stats {
    ServiceStats total;  ///< Σ over backends; shard_max_depth
                         ///< concatenated in backend index order
    std::vector<ServiceStats> backends;  ///< per backend
  };
  [[nodiscard]] Stats stats() const;

  /// Aggregate stats in the flat BENCH_*.json shape of
  /// ScheduleService::stats_json (including `schema_version` and the
  /// router's own `uptime_seconds`), plus `backends` (the count) and a
  /// `per_backend` array of each backend's own stats document — each from
  /// one `stats_snapshot()`, so the totals always equal the sum of the
  /// per_backend objects in the same document.
  [[nodiscard]] std::string stats_json() const;

  /// Seconds since this router was constructed (monotonic clock).
  [[nodiscard]] double uptime_seconds() const;

 private:
  struct RingPoint {
    std::uint64_t hash = 0;
    std::uint32_t backend = 0;
  };

  /// `kVirtualNodes` points per backend, sorted by (hash, backend). Throws
  /// std::invalid_argument on zero backends.
  [[nodiscard]] static std::vector<RingPoint> make_ring(std::size_t backends);
  [[nodiscard]] std::size_t backend_for_hash(std::uint64_t hash) const;

  const std::vector<RingPoint> ring_;
  const std::vector<std::shared_ptr<ScheduleBackend>> backends_;
  const std::chrono::steady_clock::time_point start_time_ = std::chrono::steady_clock::now();
};

}  // namespace sts
