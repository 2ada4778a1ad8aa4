#include "service/shard_router.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "pipeline/schedule_cache.hpp"
#include "support/text.hpp"

namespace sts {

namespace {

/// The 64-bit hash a request routes by: its memoized key_hash(), which the
/// backend's shard pick and cache probes then reuse. A delta request routes
/// by the digest it names: `key_digest()` is the hex form of key_hash(), i.e.
/// exactly the hash its base request was routed by — so the delta lands on
/// the backend whose base registry holds the graph and whose fragment cache
/// is warm. key() must not be touched on a delta (its graph is not
/// materialized yet; the memo would serve a stale identity). A malformed
/// digest still routes deterministically and fails with "unknown base_key"
/// at the backend.
std::uint64_t routing_hash(const ScheduleRequest& request) {
  if (request.base_key.has_value()) {
    if (const std::optional<std::uint64_t> hash = parse_key_digest(*request.base_key)) {
      return *hash;
    }
    return fnv1a64(*request.base_key);
  }
  return request.key_hash();
}

/// config.backend_factory(i), or an in-process service, for every index.
std::vector<std::shared_ptr<ScheduleBackend>> make_backends(const RouterConfig& config) {
  std::vector<std::shared_ptr<ScheduleBackend>> backends;
  backends.reserve(config.num_backends);
  for (std::size_t i = 0; i < config.num_backends; ++i) {
    std::shared_ptr<ScheduleBackend> backend =
        config.backend_factory ? config.backend_factory(i)
                               : std::make_shared<ScheduleService>(config.backend);
    if (!backend) throw std::invalid_argument("ShardRouter: backend_factory returned nullptr");
    backends.push_back(std::move(backend));
  }
  return backends;
}

}  // namespace

// The ring is built first, so a degenerate config throws before any backend
// exists.
ShardRouter::ShardRouter(RouterConfig config)
    : ring_(make_ring(config.num_backends)),
      backends_(make_backends(config)) {}

std::vector<ShardRouter::RingPoint> ShardRouter::make_ring(std::size_t backends) {
  if (backends == 0) throw std::invalid_argument("ShardRouter: num_backends must be >= 1");
  std::vector<RingPoint> ring;
  ring.reserve(backends * kVirtualNodes);
  for (std::size_t b = 0; b < backends; ++b) {
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      // The point position depends only on (backend index, vnode index), so
      // adding a backend never moves an existing backend's points — the
      // consistent-hashing property GrowingThePoolOnlyMovesKeysToTheNewBackend
      // pins down.
      std::string point = "backend ";
      append_number(point, b);
      point += " vnode ";
      append_number(point, v);
      ring.push_back(RingPoint{fnv1a64(point), static_cast<std::uint32_t>(b)});
    }
  }
  std::sort(ring.begin(), ring.end(), [](const RingPoint& a, const RingPoint& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.backend < b.backend;
  });
  return ring;
}

std::size_t ShardRouter::backend_for_hash(std::uint64_t hash) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), hash,
      [](const RingPoint& point, std::uint64_t value) { return point.hash < value; });
  return it != ring_.end() ? it->backend : ring_.front().backend;  // wrap past the top
}

std::size_t ShardRouter::backend_for_key(std::string_view key) const {
  return backend_for_hash(fnv1a64(key));
}

std::size_t ShardRouter::backend_for(const ScheduleRequest& request) const {
  return backend_for_hash(routing_hash(request));
}

ServiceAdmission ShardRouter::submit(ScheduleRequest request) {
  const std::size_t index = backend_for(request);
  ServiceAdmission admission = backends_[index]->submit(std::move(request));
  if (admission.rejected.has_value()) admission.rejected->backend = index;
  return admission;
}

ScheduleResponse ShardRouter::schedule(ScheduleRequest request) {
  return submit(std::move(request)).wait();
}

ScheduleBackend& ShardRouter::backend(std::size_t index) { return *backends_.at(index); }

ScheduleService& ShardRouter::local_backend(std::size_t index) {
  auto* service = dynamic_cast<ScheduleService*>(backends_.at(index).get());
  if (service == nullptr) {
    throw std::invalid_argument("ShardRouter: backend " + std::to_string(index) +
                                " is not an in-process ScheduleService");
  }
  return *service;
}

void ShardRouter::wait_idle() {
  for (const auto& backend : backends_) backend->wait_idle();
}

double ShardRouter::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
}

ShardRouter::Stats ShardRouter::stats() const {
  Stats out;
  out.backends.reserve(backends_.size());
  for (const auto& backend : backends_) {
    out.backends.push_back(backend->stats());
    accumulate_service_stats(out.total, out.backends.back());
  }
  return out;
}

std::string ShardRouter::stats_json() const {
  // One stats_snapshot() per backend feeds both the per-backend records and
  // the aggregate, so the emitted totals always equal the sum of the
  // per_backend objects in the same document (for a remote backend the
  // snapshot is a single /stats fetch).
  ServiceStats total;
  std::vector<std::string> per_backend;
  per_backend.reserve(backends_.size());
  std::size_t cache_weight = 0;  // backends' resident cache weight
  for (const auto& backend : backends_) {
    ScheduleBackend::Snapshot snapshot = backend->stats_snapshot();
    accumulate_service_stats(total, snapshot.stats);
    cache_weight += snapshot.cache_weight;
    per_backend.push_back(std::move(snapshot.json));
  }
  std::string json = "{\"schema_version\": " + std::to_string(ScheduleService::kStatsSchemaVersion);
  json += ", \"uptime_seconds\": ";
  append_number(json, uptime_seconds());
  json += ", \"backends\": " + std::to_string(backends_.size());
  append_stats_counters(json, total);
  json += ", \"cache_weight\": " + std::to_string(cache_weight);
  std::size_t peak = 0;
  for (const std::size_t depth : total.shard_max_depth) peak = std::max(peak, depth);
  json += ", \"max_queue_depth\": " + std::to_string(peak);
  json += ", \"per_backend\": [";
  for (std::size_t i = 0; i < per_backend.size(); ++i) {
    if (i > 0) json += ", ";
    json += per_backend[i];
  }
  json += "]}";
  return json;
}

}  // namespace sts
