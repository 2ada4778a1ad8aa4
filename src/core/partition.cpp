#include "core/partition.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "support/rational.hpp"

namespace sts {

namespace {

constexpr std::int64_t kNoConstraint = std::numeric_limits<std::int64_t>::max();

/// Shared machinery of the greedy partitioners: readiness tracking,
/// automatic (block-less) assignment of buffer nodes, block bookkeeping.
/// Every node that becomes ready is handed to the caller's `on_ready`, which
/// files it into the caller's ready heaps. All O(n) scratch comes from the
/// workspace arena, so building a partition costs no per-node heap
/// allocations (the result containers aside).
class PartitionBuilder {
 public:
  PartitionBuilder(const TaskGraph& graph, std::int64_t num_pes, Workspace& ws)
      : graph_(graph), num_pes_(num_pes),
        pending_in_(ws.arena.alloc_array<std::size_t>(graph.node_count())),
        chain_min_(ws.arena.alloc_array<std::int64_t>(graph.node_count())) {
    if (num_pes <= 0) throw std::invalid_argument("partition: num_pes must be > 0");
    partition_.block_of.assign(graph.node_count(), -1);
    for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
      pending_in_[static_cast<std::size_t>(v)] = graph.in_degree(v);
      chain_min_[static_cast<std::size_t>(v)] = kNoConstraint;
      if (graph.occupies_pe(v)) ++remaining_;
    }
  }

  /// Activates one connected partition: its in-degree-0 nodes become ready
  /// (components are edge-closed, so nothing else can be pending-free).
  /// Callers drive components one at a time, so the ready nodes are only
  /// ever those of the active one.
  template <typename OnReady>
  void seed(std::span<const NodeId> nodes, const OnReady& on_ready) {
    for (const NodeId v : nodes) {
      if (pending_in_[static_cast<std::size_t>(v)] == 0) make_ready(v, on_ready);
    }
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }
  [[nodiscard]] bool block_open() const noexcept { return open_block_ >= 0; }

  /// Min output volume over the open-block sources `v` transitively depends
  /// on via direct (non-buffer) edges; kNoConstraint if v has no predecessor
  /// in the open block (it would start a fresh stream component).
  [[nodiscard]] std::int64_t source_volume_bound(NodeId v) const {
    std::int64_t bound = kNoConstraint;
    for (const EdgeId e : graph_.in_edges(v)) {
      const NodeId u = graph_.edge(e).src;
      if (graph_.kind(u) == NodeKind::kBuffer) continue;  // memory boundary
      if (open_block_ >= 0 && partition_.block_of[static_cast<std::size_t>(u)] == open_block_) {
        bound = std::min(bound, chain_min_[static_cast<std::size_t>(u)]);
      }
    }
    return bound;
  }

  /// Places ready node v in the open block (opening one if none is), reports
  /// the nodes this makes ready, then closes the block if it holds num_pes.
  template <typename OnReady>
  void assign(NodeId v, const OnReady& on_ready) {
    if (open_block_ < 0) {
      open_block_ = static_cast<std::int32_t>(partition_.blocks.size());
      partition_.blocks.emplace_back();
    }
    // Chain value: the smallest block-source volume v depends on; block
    // sources anchor the chain with their own produced volume.
    const std::int64_t bound = source_volume_bound(v);
    chain_min_[static_cast<std::size_t>(v)] =
        bound == kNoConstraint ? graph_.output_volume(v) : bound;
    partition_.block_of[static_cast<std::size_t>(v)] = open_block_;
    partition_.blocks[static_cast<std::size_t>(open_block_)].push_back(v);
    --remaining_;
    release_successors(v, on_ready);
    if (static_cast<std::int64_t>(
            partition_.blocks[static_cast<std::size_t>(open_block_)].size()) >= num_pes_) {
      close_block();
    }
  }

  void close_block() { open_block_ = -1; }

  [[nodiscard]] SpatialPartition take() { return std::move(partition_); }

 private:
  template <typename OnReady>
  void make_ready(NodeId v, const OnReady& on_ready) {
    if (graph_.kind(v) == NodeKind::kBuffer) {
      // Buffer nodes are backing memory, not tasks: absorb them as soon as
      // all producers are placed; they never consume a PE slot.
      release_successors(v, on_ready);
    } else {
      on_ready(v);
    }
  }

  template <typename OnReady>
  void release_successors(NodeId v, const OnReady& on_ready) {
    for (const EdgeId e : graph_.out_edges(v)) {
      const NodeId w = graph_.edge(e).dst;
      if (--pending_in_[static_cast<std::size_t>(w)] == 0) make_ready(w, on_ready);
    }
  }

  const TaskGraph& graph_;
  std::int64_t num_pes_;
  SpatialPartition partition_;
  std::span<std::size_t> pending_in_;
  std::span<std::int64_t> chain_min_;
  std::int32_t open_block_ = -1;
  std::size_t remaining_ = 0;
};

/// A ready node with its sort key packed beside it, so a heap comparison
/// reads one record instead of three per-node arrays.
struct ReadyEntry {
  Rational level;
  std::int64_t amount;  ///< produced volume (Alg. 1) or work (Alg. 2)
  std::int32_t rank;    ///< canonical rank within the node's component
  NodeId node;
};

// Strict total orders over one component's ready nodes (ranks are unique
// within a component, and the heaps only ever hold one component). The
// final canonical-rank tie-break keeps every pick invariant under node-id
// renumbering.

/// Alg. 1: lowest level, then least produced volume.
struct EligibleOrder {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const noexcept {
    if (a.level != b.level) return a.level < b.level;
    if (a.amount != b.amount) return a.amount < b.amount;
    return a.rank < b.rank;
  }
};

/// SB-RLX fallback: least produced volume, then lowest level.
struct RelaxedOrder {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const noexcept {
    if (a.amount != b.amount) return a.amount < b.amount;
    if (a.level != b.level) return a.level < b.level;
    return a.rank < b.rank;
  }
};

/// Alg. 2: highest work, then lowest level.
struct HeaviestOrder {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const noexcept {
    if (a.amount != b.amount) return a.amount > b.amount;
    if (a.level != b.level) return a.level < b.level;
    return a.rank < b.rank;
  }
};

/// Ready nodes as a binary heap over arena storage reached through `Slots`:
/// a pointer to the heap's first slot, or a reverse iterator for a heap that
/// grows down from the end of an array it shares. pop() takes the least
/// entry under the strict total order `Before`.
template <typename Before, typename Slots = ReadyEntry*>
class ReadyHeap {
 public:
  explicit ReadyHeap(Slots slots) noexcept : slots_(slots) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void push(ReadyEntry entry) {
    slots_[size_++] = entry;
    std::push_heap(slots_, slots_ + size_, after);
  }

  [[nodiscard]] NodeId pop() {
    std::pop_heap(slots_, slots_ + size_, after);
    return slots_[--size_].node;
  }

  /// Moves every entry into `into`, deepest slot first. When the two heaps
  /// share an array from opposite ends, each push then writes at or below
  /// the slot just read, never over an entry still to move.
  template <typename Into>
  void drain_into(Into& into) {
    while (size_ > 0) into.push(slots_[--size_]);
  }

 private:
  // The std heap algorithms keep the greatest element on top.
  static bool after(const ReadyEntry& a, const ReadyEntry& b) noexcept { return Before{}(b, a); }

  Slots slots_;
  std::size_t size_ = 0;
};

/// The most nodes one component can hold ready at once: its size. Components
/// run one at a time, so this bounds the ready heaps' combined size.
std::size_t largest_component(const CanonicalPartitionIndex& index) {
  std::size_t largest = 0;
  for (std::int32_t c = 0; c < index.count; ++c) largest = std::max(largest, index.nodes(c).size());
  return largest;
}

std::size_t pe_node_count(const TaskGraph& graph, std::span<const NodeId> nodes) {
  std::size_t count = 0;
  for (const NodeId v : nodes) {
    if (graph.occupies_pe(v)) ++count;
  }
  return count;
}

}  // namespace

const char* to_string(PartitionVariant variant) noexcept {
  return variant == PartitionVariant::kLTS ? "SB-LTS" : "SB-RLX";
}

SpatialPartition partition_spatial_blocks(const TaskGraph& graph, std::int64_t num_pes,
                                          PartitionVariant variant, Workspace* ws,
                                          const CanonicalPartitionIndex* index) {
  return partition_spatial_blocks(graph, num_pes, variant, node_levels(graph), ws, index);
}

SpatialPartition partition_spatial_blocks(const TaskGraph& graph, std::int64_t num_pes,
                                          PartitionVariant variant,
                                          std::span<const Rational> level, Workspace* ws,
                                          const CanonicalPartitionIndex* index) {
  Workspace local;
  Workspace& work = ws ? *ws : local;
  PartitionBuilder builder(graph, num_pes, work);
  CanonicalPartitionIndex owned_index;
  if (!index) {
    owned_index = canonical_partition_index(graph, level);
    index = &owned_index;
  }
  const std::vector<std::int32_t>& rank = index->rank;

  // A ready node's eligibility is fixed from the moment it becomes ready
  // until the open block closes: all its predecessors are placed, so its
  // source-volume bound changes only with the open block, and after a close
  // every ready node is unconstrained. An eligible node thus stays eligible
  // and waits in one heap in Alg. 1's order; an ineligible one waits in
  // another in SB-RLX's fallback order until a close moves it over (each
  // node moves at most once). Together the heaps hold at most one
  // component, so they share one array: eligible from the front, ineligible
  // from the back.
  const std::span<ReadyEntry> slots =
      work.arena.alloc_array<ReadyEntry>(largest_component(*index));
  ReadyHeap<EligibleOrder> eligible(slots.data());
  ReadyHeap<RelaxedOrder, std::reverse_iterator<ReadyEntry*>> ineligible(
      std::reverse_iterator(slots.data() + slots.size()));
  const auto on_ready = [&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    const ReadyEntry entry{level[i], graph.output_volume(v), rank[i], v};
    const std::int64_t bound = builder.source_volume_bound(v);
    if (bound == kNoConstraint || entry.amount <= bound) {
      eligible.push(entry);
    } else {
      ineligible.push(entry);
    }
  };

  for (std::int32_t c = 0; c < index->count; ++c) {
    const std::span<const NodeId> component = index->nodes(c);
    builder.seed(component, on_ready);
    const std::size_t target = builder.remaining() - pe_node_count(graph, component);
    while (builder.remaining() > target) {
      if (!eligible.empty()) {
        builder.assign(eligible.pop(), on_ready);
      } else if (ineligible.empty()) {
        throw std::logic_error("partition: no ready node (cyclic graph?)");
      } else if (variant == PartitionVariant::kRLX) {
        builder.assign(ineligible.pop(), on_ready);
      } else {
        // SB-LTS: nothing safe to add; seal the block and start a fresh one
        // (every candidate is then a block source and becomes eligible).
        builder.close_block();
      }
      if (!builder.block_open()) ineligible.drain_into(eligible);  // sealed above, or full
    }
    // Component boundary: blocks never span components, so the per-component
    // schedule fragments downstream stay independently reusable.
    builder.close_block();
  }
  return builder.take();
}

SpatialPartition partition_by_work(const TaskGraph& graph, std::int64_t num_pes, Workspace* ws,
                                   const CanonicalPartitionIndex* index) {
  return partition_by_work(graph, num_pes, node_levels(graph), ws, index);
}

SpatialPartition partition_by_work(const TaskGraph& graph, std::int64_t num_pes,
                                   std::span<const Rational> level, Workspace* ws,
                                   const CanonicalPartitionIndex* index) {
  Workspace local;
  Workspace& work = ws ? *ws : local;
  PartitionBuilder builder(graph, num_pes, work);
  CanonicalPartitionIndex owned_index;
  if (!index) {
    owned_index = canonical_partition_index(graph, level);
    index = &owned_index;
  }
  const std::vector<std::int32_t>& rank = index->rank;

  ReadyHeap<HeaviestOrder> ready(
      work.arena.alloc_array<ReadyEntry>(largest_component(*index)).data());
  const auto on_ready = [&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    ready.push({level[i], graph.work(v), rank[i], v});
  };

  for (std::int32_t c = 0; c < index->count; ++c) {
    const std::span<const NodeId> component = index->nodes(c);
    builder.seed(component, on_ready);
    const std::size_t target = builder.remaining() - pe_node_count(graph, component);
    while (builder.remaining() > target) {
      if (ready.empty()) {
        throw std::logic_error("partition_by_work: no ready node (cyclic graph?)");
      }
      builder.assign(ready.pop(), on_ready);  // blocks cut automatically every num_pes nodes
    }
    builder.close_block();  // blocks never span components
  }
  return builder.take();
}

bool partition_is_valid(const TaskGraph& graph, const SpatialPartition& partition,
                        std::int64_t num_pes) {
  return partition_is_valid(graph, partition, num_pes, topological_order(graph));
}

bool partition_is_valid(const TaskGraph& graph, const SpatialPartition& partition,
                        std::int64_t num_pes, std::span<const NodeId> order) {
  const std::size_t n = graph.node_count();
  if (partition.block_of.size() != n) return false;
  // The block lists and block_of must agree exactly: every listed node names
  // its list's block and is listed once, and every PE-occupying node is
  // listed (so its block exists). Buffer nodes carry no block.
  std::vector<bool> listed(n, false);
  for (std::size_t b = 0; b < partition.blocks.size(); ++b) {
    const std::vector<NodeId>& members = partition.blocks[b];
    if (members.empty()) return false;
    if (static_cast<std::int64_t>(members.size()) > num_pes) return false;
    for (const NodeId u : members) {
      if (u < 0 || static_cast<std::size_t>(u) >= n) return false;
      const auto idx = static_cast<std::size_t>(u);
      if (listed[idx] || partition.block_of[idx] != static_cast<std::int32_t>(b)) return false;
      listed[idx] = true;
    }
  }
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (graph.occupies_pe(v) ? !listed[idx] : partition.block_of[idx] != -1) return false;
  }
  // Dependencies must not point backwards across blocks; buffer nodes relay
  // the max block of their producers.
  std::vector<std::int32_t> effective(partition.block_of.begin(), partition.block_of.end());
  for (const NodeId v : order) {
    const auto idx = static_cast<std::size_t>(v);
    if (graph.kind(v) == NodeKind::kBuffer) {
      std::int32_t max_pred = 0;
      for (const EdgeId e : graph.in_edges(v)) {
        max_pred = std::max(max_pred, effective[static_cast<std::size_t>(graph.edge(e).src)]);
      }
      effective[idx] = max_pred;
      continue;
    }
    for (const EdgeId e : graph.in_edges(v)) {
      if (effective[static_cast<std::size_t>(graph.edge(e).src)] > effective[idx]) return false;
    }
  }
  return true;
}

}  // namespace sts
