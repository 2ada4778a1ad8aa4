#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "graph/serialization.hpp"
#include "support/thread_annotations.hpp"
#include "graph/task_graph.hpp"
#include "pipeline/schedule_context.hpp"
#include "pipeline/scheduler.hpp"
#include "support/weighted_lru.hpp"

namespace sts {

/// Bounded LRU cache of per-partition schedule fragments: the second level of
/// the serving cache. Where ScheduleCache memoizes whole-graph results under
/// the full-graph fingerprint, SubgraphCache memoizes the schedule of each
/// connected partition under its renumbering-invariant canonical form
/// (canonical_partition_form), so near-duplicate requests — and delta
/// requests that edit a handful of nodes — reuse every untouched partition's
/// fragment and pay only for the partitions they changed. Only graphs of two
/// or more partitions store fragments (see schedule_with_subgraph_cache).
/// Invalidation is emergent from content addressing: an edited partition
/// hashes to a new form, which simply misses.
///
/// A fragment is the full ScheduleResult of the partition materialized as a
/// standalone graph in canonical node order; assemble_from_fragments stitches
/// fragments back into whole-graph coordinates bit-identically (by
/// result_fingerprint) to a cold schedule. Only fragments are stored: keys
/// are split into a `context` (scheduler name + machine cache key) and the
/// canonical `form` bytes, with the bucket hash supplied by the caller —
/// PartitionCanonMemo already digested the form, so probes stay O(context)
/// instead of re-hashing kilobytes of form per partition. Probes still compare both strings in full, so a
/// (astronomically unlikely) hash collision degrades to a miss, never to a
/// wrong schedule.
///
/// Thread-safe; entries are immutable once inserted and shared by pointer.
/// Weight = partition node count, same size-aware policy as ScheduleCache.
class SubgraphCache {
 public:
  struct Stats {
    std::uint64_t partition_hits = 0;       ///< fragment reused
    std::uint64_t partition_misses = 0;     ///< fragment scheduled cold
    std::uint64_t fragments_assembled = 0;  ///< fragments stitched into results
    std::uint64_t delta_invalidated = 0;    ///< misses while serving a delta
                                            ///< request: partitions its edits
                                            ///< invalidated (subset of misses)
  };

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit SubgraphCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity), canon_memo_(capacity), lru_(capacity) {}

  SubgraphCache(const SubgraphCache&) = delete;
  SubgraphCache& operator=(const SubgraphCache&) = delete;

  /// Looks up a fragment under (context, form); counts a hit or a miss (plus
  /// delta_invalidated when `delta` — the caller is rescheduling an edited
  /// base request). `hash` must be a digest of both parts (same value the
  /// matching insert used).
  [[nodiscard]] std::shared_ptr<const ScheduleResult> find(std::uint64_t hash,
                                                           const std::string& context,
                                                           const std::string& form, bool delta)
      EXCLUDES(mutex_);

  /// Inserts a fragment computed after a find() miss and returns the resident
  /// pointer (the already-cached one if a concurrent insert won the race; the
  /// caller's own, uncached, if it outweighs the whole cache). Evicts LRU
  /// entries past the weight capacity.
  [[nodiscard]] std::shared_ptr<const ScheduleResult> insert(std::uint64_t hash,
                                                             std::string context,
                                                             std::string form,
                                                             ScheduleResult fragment,
                                                             std::size_t weight)
      EXCLUDES(mutex_);

  /// Records that an assembly stitched `fragment_count` fragments.
  void note_assembled(std::size_t fragment_count) EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t total_weight() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Canonicalization memo shared by every request served through this
  /// cache: schedule_with_subgraph_cache threads it into
  /// canonical_partition_index so partitions whose content was seen before
  /// skip structural refinement — the dominant canonicalization cost on
  /// large graphs. Same weight capacity (node count) as the fragment store.
  [[nodiscard]] PartitionCanonMemo& canon_memo() noexcept { return canon_memo_; }
  [[nodiscard]] const PartitionCanonMemo& canon_memo() const noexcept { return canon_memo_; }

 private:
  const std::size_t capacity_;
  PartitionCanonMemo canon_memo_;
  mutable Mutex mutex_;
  /// Keyed by (context, form).
  WeightedLru<std::tuple<std::string, std::string>, std::shared_ptr<const ScheduleResult>> lru_
      GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

/// Schedules `graph` through the fragment cache: canonicalizes its connected
/// partitions, reuses every cached fragment, schedules only the missing ones
/// (each as a standalone canonical graph, handed its identity index from
/// materialized_partition_index so it is canonicalized once), and assembles
/// a whole-graph ScheduleResult whose result_fingerprint is bit-identical to
/// schedule_by_name(scheduler, graph, machine).
///
/// The graph's partition count picks the path (composite_partition_index).
/// A graph of at most one connected partition has nothing to compose: it is
/// scheduled whole by schedule_by_name and leaves the fragment store, the
/// canonicalization memo and every counter untouched, since a repeat of it
/// is an exact whole-graph repeat that the caller's ScheduleCache serves.
/// Only graphs of two or more partitions store and reuse fragments.
///
/// Fragment composition applies to the streaming pipeline schedulers
/// (streaming-lts/rlx/work) without mesh placement — their passes are
/// per-partition composable because the component-sequential partitioner
/// never mixes partitions in a block and the streaming recurrences are
/// translation-invariant in the block release time. Any other scheduler (or
/// place_on_mesh) is plain schedule_by_name, stored nowhere: its result
/// carries node ids verbatim, so only the caller's whole-graph ScheduleCache,
/// keyed by the exact graph, can reuse it.
///
/// `delta_request` only affects stats attribution (delta_invalidated).
[[nodiscard]] ScheduleResult schedule_with_subgraph_cache(const std::string& scheduler,
                                                          const TaskGraph& graph,
                                                          const MachineConfig& machine,
                                                          SubgraphCache& cache,
                                                          bool delta_request = false);

}  // namespace sts
