#include "pipeline/schedule_cache.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/serialization.hpp"
#include "pipeline/registry.hpp"

namespace sts {

std::string canonical_cache_key(const TaskGraph& graph, std::string_view scheduler,
                                const MachineConfig& machine) {
  std::string key;
  append_canonical_cache_key(key, graph, scheduler, machine);
  return key;
}

void append_canonical_cache_key(std::string& out, const TaskGraph& graph,
                                std::string_view scheduler, const MachineConfig& machine) {
  const std::string machine_key = machine.cache_key();
  out.reserve(out.size() + 12 + scheduler.size() + machine_key.size() + 16 +
              9 * graph.node_count() + 24 * graph.edge_count());
  out += "scheduler=";
  out += scheduler;
  out += '\n';
  out += machine_key;
  out += '\n';
  append_canonical_fingerprint(out, graph);
}

ScheduleCache::ScheduleCache(std::size_t capacity, std::optional<std::chrono::nanoseconds> ttl)
    : lru_(capacity), ttl_(ttl) {
  if (capacity == 0) throw std::invalid_argument("ScheduleCache: capacity must be >= 1");
}

bool ScheduleCache::is_expired_locked(const Cached& entry) const {
  // One steady_clock read per probe, and only when a ttl is configured at
  // all — the default (no ttl) pays nothing. ttl == 0 expires every entry
  // on its next probe, which tests use for deterministic expiry.
  return ttl_ && std::chrono::steady_clock::now() - entry.inserted >= *ttl_;
}

const ScheduleCache::Cached* ScheduleCache::find_live_locked(std::uint64_t hash,
                                                             std::string_view key) {
  const Cached* entry = lru_.find(hash, key);
  if (entry == nullptr || !is_expired_locked(*entry)) return entry;
  lru_.erase(hash, key);
  ++stats_.expired;
  return nullptr;
}

ScheduleCache::ResultPtr ScheduleCache::get_or_schedule(const TaskGraph& graph,
                                                        std::string_view scheduler,
                                                        const MachineConfig& machine) {
  return get_or_compute(canonical_cache_key(graph, scheduler, machine),
                        [&] { return schedule_by_name(scheduler, graph, machine); },
                        graph.node_count());
}

ScheduleCache::InFlightTable::iterator ScheduleCache::find_in_flight_locked(
    std::uint64_t hash, std::string_view key) {
  const auto [first, last] = in_flight_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (*it->second.key == key) return it;
  }
  return in_flight_.end();
}

void ScheduleCache::erase_in_flight_locked(std::uint64_t hash, const std::string& key) {
  // The caller's own entry, matched by identity rather than by key bytes.
  const auto [first, last] = in_flight_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second.key == &key) {
      in_flight_.erase(it);
      return;
    }
  }
}

ScheduleCache::ResultPtr ScheduleCache::get_or_compute(
    std::string key, const std::function<ScheduleResult()>& compute, std::size_t weight) {
  const std::uint64_t hash = fnv1a64(key);
  return get_or_compute(hash, std::move(key), compute, weight);
}

ScheduleCache::ResultPtr ScheduleCache::get_or_compute(
    std::uint64_t hash, std::string key, const std::function<ScheduleResult()>& compute,
    std::size_t weight) {
  std::shared_future<Settled> pending;
  // Constructed only on the miss path: a promise allocates shared state,
  // which the hit path (the whole point of the cache) must not pay for.
  std::optional<std::promise<Settled>> promise;
  {
    const MutexLock lock(mutex_);
    if (const Cached* hit = find_live_locked(hash, key)) {
      ++stats_.hits;
      return hit->result;
    }
    if (const auto flight = find_in_flight_locked(hash, key); flight != in_flight_.end()) {
      ++stats_.races;
      pending = flight->second.flight;
    } else {
      ++stats_.misses;
      promise.emplace();
      in_flight_.emplace(hash, InFlight{&key, promise->get_future().share()});
    }
  }
  // Race loser: share the in-flight computation. A failure arrives as a
  // value and is rethrown here, on this thread.
  if (pending.valid()) return pending.get().result_or_throw();

  // Miss: compute outside the lock — scheduling dominates, and concurrent
  // misses on distinct keys must not serialize behind each other.
  ResultPtr result;
  try {
    result = std::make_shared<const ScheduleResult>(compute());
  } catch (...) {
    {
      const MutexLock lock(mutex_);
      erase_in_flight_locked(hash, key);  // next request for this key retries
    }
    // Settle the losers with the error detail as a value, then rethrow the
    // original exception locally for this caller.
    promise->set_value(Settled::from_current_exception());
    throw;
  }
  {
    const MutexLock lock(mutex_);
    erase_in_flight_locked(hash, key);  // before `key` moves into the LRU below
    if (weight == 0) weight = 1;
    const auto inserted =
        lru_.insert(hash, std::move(key), Cached{result, std::chrono::steady_clock::now()},
                    weight);
    if (inserted.value == nullptr) {
      // Admission refusal: an entry heavier than the whole capacity can
      // never fit, and admitting it would only churn out every resident.
      // Counted with the evictions so the books still explain the miss
      // traffic it causes.
      ++stats_.evictions;
      stats_.evicted_weight += weight;
    } else {
      stats_.evictions += inserted.evicted.count;
      stats_.evicted_weight += inserted.evicted.weight;
    }
  }
  promise->set_value(Settled{result, {}, false, std::nullopt});
  return result;
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::string_view key) {
  return try_get(fnv1a64(key), key);
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::uint64_t hash, std::string_view key) {
  const MutexLock lock(mutex_);
  const Cached* hit = find_live_locked(hash, key);
  if (hit == nullptr) return nullptr;
  ++stats_.hits;
  return hit->result;
}

bool ScheduleCache::contains(std::string_view key) const {
  const std::uint64_t hash = fnv1a64(key);
  const MutexLock lock(mutex_);
  const Cached* entry = lru_.peek(hash, key);
  return entry != nullptr && !is_expired_locked(*entry);
}

void ScheduleCache::set_ttl(std::optional<std::chrono::nanoseconds> ttl) {
  const MutexLock lock(mutex_);
  ttl_ = ttl;
}

std::optional<std::chrono::nanoseconds> ScheduleCache::ttl() const {
  const MutexLock lock(mutex_);
  return ttl_;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  const MutexLock lock(mutex_);
  Stats out = stats_;
  if (ttl_) {
    // Expiry is lazy: an entry past its ttl is only physically dropped by the
    // next mutating probe of its key, yet contains()/try_get already read it
    // as absent. Count such residents here so stats().expired agrees with the
    // lookup behavior at all times, not just after the drop.
    // The visitor reads a copy of the ttl: thread-safety analysis checks a
    // lambda body without the caller's lock.
    const std::chrono::nanoseconds ttl = *ttl_;
    const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
    lru_.for_each([&out, now, ttl](const Cached& entry) {
      if (now - entry.inserted >= ttl) ++out.expired;
    });
  }
  return out;
}

std::size_t ScheduleCache::size() const {
  const MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t ScheduleCache::total_weight() const {
  const MutexLock lock(mutex_);
  return lru_.total_weight();
}

std::size_t ScheduleCache::capacity() const {
  const MutexLock lock(mutex_);
  return lru_.capacity();
}

void ScheduleCache::set_capacity(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("ScheduleCache: capacity must be >= 1");
  const MutexLock lock(mutex_);
  const auto evicted = lru_.set_capacity(capacity);
  stats_.evictions += evicted.count;
  stats_.evicted_weight += evicted.weight;
}

void ScheduleCache::clear() {
  const MutexLock lock(mutex_);
  lru_.clear();
  stats_ = Stats{};
}

ScheduleCache& ScheduleCache::global() {
  static ScheduleCache* cache = new ScheduleCache();
  return *cache;
}

}  // namespace sts
