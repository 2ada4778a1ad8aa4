#include "pipeline/schedule_cache.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/serialization.hpp"
#include "pipeline/registry.hpp"

namespace sts {

ScheduleCache::Flight ScheduleCache::settle_current_exception() {
  Flight flight;
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    flight.error = e.what();
    flight.invalid = true;
  } catch (const std::exception& e) {
    flight.error = e.what();
  } catch (...) {
    flight.error = "unknown error";
  }
  // A failure must read as one downstream even if what() was empty.
  if (flight.error.empty()) flight.error = "unknown error";
  return flight;
}

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
    : capacity_(capacity), ttl_(ttl) {
  if (capacity_ == 0) throw std::invalid_argument("ScheduleCache: capacity must be >= 1");
}

ScheduleCache::Lru::const_iterator ScheduleCache::find_entry_locked(std::uint64_t hash,
                                                             std::string_view key) const {
  const auto bucket = buckets_.find(hash);
  if (bucket == buckets_.end()) return lru_.end();
  for (const Lru::const_iterator it : bucket->second) {
    if (it->key == key) return it;
  }
  return lru_.end();
}

bool ScheduleCache::is_expired_locked(const Entry& entry) const {
  // One steady_clock read per probe, and only when a ttl is configured at
  // all — the default (no ttl) pays nothing. ttl == 0 expires every entry
  // on its next probe, which tests use for deterministic expiry.
  return ttl_ && std::chrono::steady_clock::now() - entry.inserted >= *ttl_;
}

void ScheduleCache::erase_expired_locked(Lru::const_iterator it) {
  auto& bucket = buckets_[it->hash];
  std::erase(bucket, it);
  if (bucket.empty()) buckets_.erase(it->hash);
  weight_ -= it->weight;
  ++stats_.expired;
  lru_.erase(it);
}

void ScheduleCache::evict_to_capacity_locked() {
  // Weight-aware LRU eviction; oversize entries are refused at admission
  // (get_or_compute / set_capacity keep weight_ <= capacity_ reachable), so
  // this always terminates with the bound restored.
  while (weight_ > capacity_ && !lru_.empty()) {
    const Lru::const_iterator victim = std::prev(lru_.cend());
    auto& bucket = buckets_[victim->hash];
    std::erase(bucket, victim);
    if (bucket.empty()) buckets_.erase(victim->hash);
    weight_ -= victim->weight;
    ++stats_.evictions;
    stats_.evicted_weight += victim->weight;
    lru_.pop_back();
  }
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
  std::shared_future<Flight> pending;
  // Constructed only on the miss path: a promise allocates shared state,
  // which the hit path (the whole point of the cache) must not pay for.
  std::optional<std::promise<Flight>> promise;
  {
    const MutexLock lock(mutex_);
    if (const Lru::const_iterator it = find_entry_locked(hash, key); it != lru_.cend()) {
      if (!is_expired_locked(*it)) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it);
        return it->result;
      }
      erase_expired_locked(it);  // fall through: this lookup is a miss (or a race)
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
  if (pending.valid()) {
    const Flight& flight = pending.get();
    if (flight.error.empty()) return flight.result;
    if (flight.invalid) throw std::invalid_argument(flight.error);
    throw std::runtime_error(flight.error);
  }

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
    promise->set_value(settle_current_exception());
    throw;
  }
  {
    const MutexLock lock(mutex_);
    erase_in_flight_locked(hash, key);  // before `key` moves into the LRU below
    if (weight == 0) weight = 1;
    if (weight > capacity_) {
      // Admission refusal: an entry heavier than the whole capacity can
      // never fit, and admitting it would only churn out every resident.
      // Counted with the evictions so the books still explain the miss
      // traffic it causes.
      ++stats_.evictions;
      stats_.evicted_weight += weight;
    } else {
      weight_ += weight;
      lru_.push_front(Entry{hash, std::move(key), weight, result, std::chrono::steady_clock::now()});
      buckets_[hash].push_back(lru_.begin());
      evict_to_capacity_locked();
    }
  }
  promise->set_value(Flight{result, {}, false});
  return result;
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::string_view key) {
  return try_get(fnv1a64(key), key);
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::uint64_t hash, std::string_view key) {
  const MutexLock lock(mutex_);
  const Lru::const_iterator it = find_entry_locked(hash, key);
  if (it == lru_.cend()) return nullptr;
  if (is_expired_locked(*it)) {
    erase_expired_locked(it);
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it);
  return it->result;
}

bool ScheduleCache::contains(std::string_view key) const {
  const std::uint64_t hash = fnv1a64(key);
  const MutexLock lock(mutex_);
  const Lru::const_iterator it = find_entry_locked(hash, key);
  return it != lru_.cend() && !is_expired_locked(*it);
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
    const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
    for (const Entry& entry : lru_) {
      if (now - entry.inserted >= *ttl_) ++out.expired;
    }
  }
  return out;
}

std::size_t ScheduleCache::size() const {
  const MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t ScheduleCache::total_weight() const {
  const MutexLock lock(mutex_);
  return weight_;
}

std::size_t ScheduleCache::capacity() const {
  const MutexLock lock(mutex_);
  return capacity_;
}

void ScheduleCache::set_capacity(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("ScheduleCache: capacity must be >= 1");
  const MutexLock lock(mutex_);
  capacity_ = capacity;
  evict_to_capacity_locked();
}

void ScheduleCache::clear() {
  const MutexLock lock(mutex_);
  lru_.clear();
  buckets_.clear();
  weight_ = 0;
  stats_ = Stats{};
}

ScheduleCache& ScheduleCache::global() {
  static ScheduleCache* cache = new ScheduleCache();
  return *cache;
}

}  // namespace sts
