#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "support/json.hpp"
#include "support/rational.hpp"
#include "support/thread_annotations.hpp"
#include "support/weighted_lru.hpp"

namespace sts {

/// Plain-text serialization of canonical task graphs.
///
/// Format (one record per line, `#` comments, blank lines ignored):
///
///     node <id> <kind> [name]        kind in {source, sink, compute, buffer}
///     output <id> <volume>           declared output volume (sources, exits,
///                                    buffers, and any node whose declaration
///                                    contradicts its out-edge volume)
///     edge <src> <dst> <volume>
///
/// Node ids must be dense and ascending starting at 0 (they map directly to
/// NodeId). `save_task_graph_to_string` always writes that shape, so
/// round-trips are exact.
[[nodiscard]] TaskGraph load_task_graph(std::istream& input);
[[nodiscard]] TaskGraph load_task_graph_from_string(const std::string& text);

[[nodiscard]] std::string save_task_graph_to_string(const TaskGraph& graph);

/// Compact binary encoding of the scheduling-relevant canonical structure:
/// node/edge counts, per-node kind + output volume, per-edge (src, dst,
/// volume). Node names are excluded — they never influence a schedule, so
/// graphs differing only in names encode identically. The per-node volume is
/// a non-sink node's declared output when one is set, else output_volume():
/// identical bytes for every valid graph, while a declaration contradicting
/// its out-edge volume (an invalid graph) changes the bytes instead of
/// aliasing the valid twin. This is the body of every request key, built
/// on every (including cache-hit) scheduling query, so it is written into
/// one pre-sized buffer from the flat node and edge arrays alone: keying a
/// freshly copied or parsed graph never builds its CSR. Like the text and
/// JSON writers, it calls no CSR accessor (lint rule 6).
[[nodiscard]] std::string canonical_fingerprint(const TaskGraph& graph);

/// Appends canonical_fingerprint(graph) to `out` — how a caller building a
/// longer key (canonical_cache_key, ScheduleRequest::key) writes the
/// fingerprint straight into its own buffer instead of copying it in.
void append_canonical_fingerprint(std::string& out, const TaskGraph& graph);

/// JSON rendering of a canonical task graph, the shape embedded in
/// ScheduleRequest envelopes (service/request.hpp):
///
///     {"nodes": [{"kind": "source", "output": 16, "name": "src"}, ...],
///      "edges": [[src, dst, volume], ...]}
///
/// Node index in the array is the NodeId. `name` is omitted when empty and
/// `output` when the node carries no declared output record (same rule as
/// the text format, so text and JSON round-trips agree bit-for-bit on the
/// canonical_fingerprint). Appends to `out` with the same to_chars fast
/// paths as the text serializer.
void append_task_graph_json(std::string& out, const TaskGraph& graph);

/// Rebuilds a task graph from the JSON shape above. Throws
/// std::invalid_argument on unknown kinds, missing source outputs,
/// non-integer volumes, out-of-range edge endpoints, or unknown members
/// (strict: a typo must not silently change the scenario).
[[nodiscard]] TaskGraph task_graph_from_json(const JsonValue& json);

/// Partition-local canonicalization: the connected partitions of a graph
/// (weakly connected components over ALL edges, buffers included — the
/// independent subproblems every pipeline stage composes over) together with
/// a renumbering-invariant canonical order of each partition's nodes.
///
/// Canonical ranks come from iterated structural refinement (a
/// Weisfeiler-Leman-style hash seeded with kind, I/O volumes, degrees, and
/// the generalized node level, then refined over sorted neighbor
/// (direction, volume, hash) signatures until the partition's class count
/// stabilizes). The refinement is computed per partition from its own
/// structure only, so ranking a partition inside a larger graph and ranking
/// its extracted subgraph agree — the property the SubgraphCache's fragment
/// reuse rests on. Nodes whose hashes still tie (structurally symmetric
/// families) fall back to original-id order; such partitions remain correct
/// to schedule but may miss the fragment cache under renumbering.
struct CanonicalPartitionIndex {
  std::int32_t count = 0;                ///< number of connected partitions
  std::vector<std::int32_t> component;   ///< per node: owning partition,
                                         ///< numbered by minimal original id
  std::vector<std::uint64_t> node_hash;  ///< stabilized structural hash
  std::vector<NodeId> order;             ///< all nodes grouped by partition,
                                         ///< each sorted by (hash, orig id)
  std::vector<std::int32_t> rank;        ///< per node: its position within its
                                         ///< partition's canonical order
  std::vector<std::size_t> offsets;      ///< partition c spans
                                         ///< order[offsets[c], offsets[c+1])

  [[nodiscard]] std::span<const NodeId> nodes(std::int32_t c) const {
    const auto i = static_cast<std::size_t>(c);
    return {order.data() + offsets[i], order.data() + offsets[i + 1]};
  }
};

[[nodiscard]] CanonicalPartitionIndex canonical_partition_index(const TaskGraph& graph);

/// As above, seeded with the graph's node_levels(graph) (a caller that
/// already walked them — the partitioners — passes them instead of paying
/// for the walk twice). The plain overload is this one over node_levels.
[[nodiscard]] CanonicalPartitionIndex canonical_partition_index(
    const TaskGraph& graph, std::span<const Rational> levels);

/// Content-addressed memo of per-partition canonicalizations. Structural
/// refinement is the dominant cost of canonical_partition_index on large
/// graphs, yet across a delta request — or a stream of requests sharing
/// partitions — almost every partition's structure is unchanged. The memo
/// keys each partition by its raw positional content: node count, edge
/// count, per-node (kind, output volume — recorded as in
/// canonical_fingerprint) in ascending-original-id order,
/// then per node its out-edges in insertion order as (destination position,
/// volume). Positions are offsets within the partition's own id-ordered
/// node list, so the key is invariant under the id shifts partitions acquire
/// when graphs are edited or appended. Identical raw bytes imply the two
/// partitions are isomorphic under the positional map with per-node edge
/// insertion order preserved, so the stored per-position hashes and
/// canonical ranks transfer verbatim and seeding + refinement are skipped.
///
/// Probes compare the full raw bytes (same collision discipline as the
/// fragment cache: a digest collision degrades to a miss, never to a wrong
/// canonicalization). Thread-safe bounded LRU; weight = partition node
/// count.
class PartitionCanonMemo {
 public:
  /// Canonicalization of one partition, stored positionally: hash[i] and
  /// rank[i] belong to the node at ascending-original-id position i. `form`
  /// is the partition's canonical_partition_form bytes and `form_digest` a
  /// 64-bit content digest of it — pure functions of the raw content, kept
  /// here so memo hits hand the fragment-cache key material over without
  /// re-walking the partition's edges or re-hashing kilobytes of form.
  struct Ranks {
    std::vector<std::uint64_t> hash;
    std::vector<std::int32_t> rank;
    std::string form;
    std::uint64_t form_digest = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;    ///< partitions whose refinement was skipped
    std::uint64_t misses = 0;  ///< partitions refined from scratch
  };

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit PartitionCanonMemo(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity), lru_(capacity) {}

  PartitionCanonMemo(const PartitionCanonMemo&) = delete;
  PartitionCanonMemo& operator=(const PartitionCanonMemo&) = delete;

  /// Looks up a partition's canonicalization by raw content; counts a hit or
  /// a miss.
  [[nodiscard]] std::shared_ptr<const Ranks> find(const std::string& raw)
      EXCLUDES(mutex_);

  /// Inserts a canonicalization computed after a find() miss and returns the
  /// resident entry (the already-cached one if a concurrent insert won the
  /// race; the caller's own, uncached, if it outweighs the whole memo).
  [[nodiscard]] std::shared_ptr<const Ranks> insert(std::string raw, Ranks ranks)
      EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t total_weight() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  /// Keyed by the raw content bytes, bucketed by their digest.
  WeightedLru<std::string, std::shared_ptr<const Ranks>> lru_ GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

/// As above, but reuses (and fills) `memo` so partitions whose raw content
/// was canonicalized before skip level computation and refinement entirely —
/// the fast path that makes delta rescheduling and shared-partition request
/// streams cheap. The returned index is identical to
/// canonical_partition_index(graph) for every graph and every memo state.
/// When `entries` is non-null it receives the resident memo entry of each
/// partition (entries[c] for partition c), giving callers the canonical form
/// bytes without another edge walk. A graph of at most one partition (see
/// composite_partition_index), or a null `memo`, gets the plain overload's
/// index, leaves the memo untouched and `entries` empty.
[[nodiscard]] CanonicalPartitionIndex canonical_partition_index(
    const TaskGraph& graph, PartitionCanonMemo* memo,
    std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>>* entries = nullptr);

/// The memo overload's index for a graph of two or more connected
/// partitions; std::nullopt for a graph of at most one, which is not
/// canonicalized and leaves the memo untouched. Such a graph's only reusable
/// part is the whole graph, whose exact repeats a whole-graph ScheduleCache
/// serves, so schedule_with_subgraph_cache schedules it whole. The count
/// comes from the graph's edge table (TaskGraph::weak_components), which a
/// graph sharing its base's table does not derive again, so a one-partition
/// graph costs nothing more here.
[[nodiscard]] std::optional<CanonicalPartitionIndex> composite_partition_index(
    const TaskGraph& graph, PartitionCanonMemo& memo,
    std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>>* entries = nullptr);

/// Compact binary canonical form of one connected partition: node count,
/// edge count, per-node (kind, output volume — a non-sink node's declared
/// output when set, as in canonical_fingerprint) in canonical-rank order, then
/// per node its out-edges in original insertion order as (canonical dst
/// rank, volume). Invariant under node-id renumbering whenever the
/// structural hashes separate the partition's nodes; per-node out-edge
/// insertion order is preserved verbatim because downstream channel
/// enumeration depends on it (two requests that differ there must MISS the
/// fragment cache, never alias). This is the SubgraphCache key material.
[[nodiscard]] std::string canonical_partition_form(const TaskGraph& graph,
                                                   const CanonicalPartitionIndex& index,
                                                   std::int32_t c);

/// Materializes one connected partition as a standalone TaskGraph whose node
/// ids are the canonical ranks (order preserved from `index`), replicating
/// kinds, declared outputs, and per-node out-edge insertion order.
[[nodiscard]] TaskGraph materialize_partition(const TaskGraph& graph,
                                              const CanonicalPartitionIndex& index,
                                              std::int32_t c);

/// The canonical_partition_index of materialize_partition(graph, index, c),
/// built in O(n) without refinement. Refinement reads only structure
/// intrinsic to the partition, so each materialized node keeps the hash it
/// had in the whole graph; its local id is its rank, its position in
/// (hash, original id) order, so the (hash, local id) order is the identity:
/// one partition, order == rank == 0..n-1. How fragment scheduling skips
/// re-canonicalizing a partition it just materialized.
[[nodiscard]] CanonicalPartitionIndex materialized_partition_index(
    const CanonicalPartitionIndex& index, std::int32_t c);

}  // namespace sts
