#include "pipeline/schedule_cache.hpp"

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

ScheduleCache::ScheduleCache(std::size_t capacity) : lru_(capacity) {
  if (capacity == 0) throw std::invalid_argument("ScheduleCache: capacity must be >= 1");
}

ScheduleCache::ResultPtr ScheduleCache::get_or_schedule(const TaskGraph& graph,
                                                        std::string_view scheduler,
                                                        const MachineConfig& machine) {
  return get_or_compute(canonical_cache_key(graph, scheduler, machine),
                        [&] { return schedule_by_name(scheduler, graph, machine); },
                        graph.node_count());
}

ScheduleCache::ResultPtr ScheduleCache::get_or_compute(
    std::string key, const std::function<ScheduleResult()>& compute, std::size_t weight) {
  const std::uint64_t hash = fnv1a64(key);
  return get_or_compute(hash, std::move(key), compute, weight);
}

ScheduleCache::ResultPtr ScheduleCache::get_or_compute(
    std::uint64_t hash, std::string key, const std::function<ScheduleResult()>& compute,
    std::size_t weight) {
  {
    const MutexLock lock(mutex_);
    if (const ResultPtr* hit = lru_.find(hash, key)) {
      ++stats_.hits;
      return *hit;
    }
    ++stats_.misses;
  }
  // Compute outside the lock — scheduling dominates, and concurrent misses on
  // distinct keys must not serialize behind each other.
  const ResultPtr result = std::make_shared<const ScheduleResult>(compute());
  const MutexLock lock(mutex_);
  if (weight == 0) weight = 1;
  const auto inserted = lru_.insert(hash, std::move(key), result, weight);
  if (inserted.value == nullptr) {
    // Admission refusal: an entry heavier than the whole capacity can
    // never fit, and admitting it would only churn out every resident.
    // Counted with the evictions so the books still explain the miss
    // traffic it causes.
    ++stats_.evictions;
    stats_.evicted_weight += weight;
    return result;
  }
  stats_.evictions += inserted.evicted.count;
  stats_.evicted_weight += inserted.evicted.weight;
  // A concurrent caller computed the same key and inserted first: keep its
  // result, so every caller of one key shares one object.
  if (*inserted.value != result) ++stats_.races;
  return *inserted.value;
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::string_view key) {
  return try_get(fnv1a64(key), key);
}

ScheduleCache::ResultPtr ScheduleCache::try_get(std::uint64_t hash, std::string_view key) {
  const MutexLock lock(mutex_);
  const ResultPtr* hit = lru_.find(hash, key);
  if (hit == nullptr) return nullptr;
  ++stats_.hits;
  return *hit;
}

bool ScheduleCache::contains(std::string_view key) const {
  const std::uint64_t hash = fnv1a64(key);
  const MutexLock lock(mutex_);
  return lru_.peek(hash, key) != nullptr;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
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

void ScheduleCache::clear() {
  const MutexLock lock(mutex_);
  lru_.clear();
  stats_ = Stats{};
}

}  // namespace sts
