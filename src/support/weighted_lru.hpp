#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace sts {

/// Weight-bounded LRU map: the one eviction policy behind every memo of the
/// serving stack (whole-graph results, partition fragments, partition
/// canonicalizations, delta bases). `capacity` bounds the total weight of the
/// resident entries, not their count; weight 1 everywhere is the classic
/// count-bounded LRU. An entry heavier than the whole capacity is refused
/// instead of evicting every resident to make room it could never have.
///
/// Entries are bucketed by a caller-supplied 64-bit hash, so a caller that
/// already holds a digest of its key never hashes the key again, and matched
/// by comparing the full key: keys that share a hash stay apart. Probes take
/// any type comparable with `K` (a string_view for a string key, a tuple of
/// references for a tuple key), so a probe never copies its key.
///
/// Not thread-safe: each owner guards its instance with its own mutex.
template <typename K, typename V>
class WeightedLru {
 public:
  /// Entries dropped, coldest first, to bring the total weight under the bound.
  struct Evicted {
    std::size_t count = 0;
    std::size_t weight = 0;
  };
  struct Inserted {
    /// The value resident under the key: the new one, or the one already
    /// there (left unchanged). nullptr when the entry outweighed the capacity.
    V* value = nullptr;
    Evicted evicted;
  };

  explicit WeightedLru(std::size_t capacity) : capacity_(capacity) {}

  /// The value under (hash, key), made most recent; nullptr when absent.
  template <typename Q>
  [[nodiscard]] V* find(std::uint64_t hash, const Q& key) {
    const auto slot = find_slot(hash, key);
    if (slot == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, slot->second);
    return &slot->second->value;
  }

  /// find() without the recency bump.
  template <typename Q>
  [[nodiscard]] const V* peek(std::uint64_t hash, const Q& key) const {
    const auto slot = find_slot(hash, key);
    return slot == index_.end() ? nullptr : &slot->second->value;
  }

  /// Inserts `value` as the most recent entry, then evicts the coldest
  /// entries until the total weight fits the capacity.
  Inserted insert(std::uint64_t hash, K key, V value, std::size_t weight) {
    if (const auto slot = find_slot(hash, key); slot != index_.end()) {
      return {&slot->second->value, {}};
    }
    if (weight > capacity_) return {};
    entries_.push_front(Entry{hash, std::move(key), weight, std::move(value)});
    index_.emplace(hash, entries_.begin());
    weight_ += weight;
    // The new entry fits on its own, so eviction stops before reaching it.
    return {&entries_.front().value, evict_to_capacity()};
  }

  void clear() {
    entries_.clear();
    index_.clear();
    weight_ = 0;
  }

  /// Visits every resident value, most recent first.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const Entry& entry : entries_) visit(entry.value);
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t total_weight() const noexcept { return weight_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    K key;
    std::size_t weight = 0;
    V value;
  };
  using List = std::list<Entry>;  ///< front = most recently used
  using Index = std::unordered_multimap<std::uint64_t, typename List::iterator>;

  template <typename Q>
  [[nodiscard]] typename Index::const_iterator find_slot(std::uint64_t hash,
                                                        const Q& key) const {
    auto [slot, last] = index_.equal_range(hash);
    while (slot != last && !(slot->second->key == key)) ++slot;
    return slot == last ? index_.end() : slot;
  }

  void remove(typename List::iterator entry) {
    auto slot = index_.find(entry->hash);
    while (slot->second != entry) ++slot;  // equal hashes are adjacent
    index_.erase(slot);
    weight_ -= entry->weight;
    entries_.erase(entry);
  }

  Evicted evict_to_capacity() {
    Evicted evicted;
    while (weight_ > capacity_ && !entries_.empty()) {
      const auto victim = std::prev(entries_.end());
      ++evicted.count;
      evicted.weight += victim->weight;
      remove(victim);
    }
    return evicted;
  }

  std::size_t capacity_;
  std::size_t weight_ = 0;
  List entries_;
  Index index_;
};

}  // namespace sts
