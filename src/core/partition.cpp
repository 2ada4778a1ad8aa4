#include "core/partition.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "support/rational.hpp"

namespace sts {

namespace {

constexpr std::int64_t kNoConstraint = std::numeric_limits<std::int64_t>::max();

/// Shared machinery of the greedy partitioners: incremental ready set,
/// automatic (block-less) assignment of buffer nodes, block bookkeeping.
/// All O(n) scratch comes from the workspace arena, so building a partition
/// costs no per-node heap allocations (the result containers aside).
class PartitionBuilder {
 public:
  PartitionBuilder(const TaskGraph& graph, std::int64_t num_pes, Workspace& ws)
      : graph_(graph), num_pes_(num_pes),
        pending_in_(ws.arena.alloc_array<std::size_t>(graph.node_count())),
        ready_pos_(ws.arena.alloc_array<std::int32_t>(graph.node_count())),
        ready_storage_(ws.arena.alloc_array<NodeId>(graph.node_count())),
        chain_min_(ws.arena.alloc_array<std::int64_t>(graph.node_count())) {
    if (num_pes <= 0) throw std::invalid_argument("partition: num_pes must be > 0");
    partition_.block_of.assign(graph.node_count(), -1);
    for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
      pending_in_[static_cast<std::size_t>(v)] = graph.in_degree(v);
      ready_pos_[static_cast<std::size_t>(v)] = -1;
      chain_min_[static_cast<std::size_t>(v)] = kNoConstraint;
      if (graph.occupies_pe(v)) ++remaining_;
    }
  }

  /// Activates one connected partition: its in-degree-0 nodes enter the ready
  /// set (components are edge-closed, so nothing else can be pending-free).
  /// Callers drive components one at a time; the ready set only ever holds
  /// nodes of the active one.
  void seed(std::span<const NodeId> nodes) {
    for (const NodeId v : nodes) {
      if (pending_in_[static_cast<std::size_t>(v)] == 0) on_ready(v);
    }
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }
  [[nodiscard]] bool done() const noexcept { return remaining_ == 0; }
  [[nodiscard]] std::span<const NodeId> ready() const noexcept {
    return ready_storage_.subspan(0, ready_size_);
  }
  [[nodiscard]] std::int32_t open_block() const noexcept { return open_block_; }
  [[nodiscard]] bool block_open_and_nonempty() const noexcept {
    return open_block_ >= 0 &&
           !partition_.blocks[static_cast<std::size_t>(open_block_)].empty();
  }

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

  void assign(NodeId v) {
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
    remove_ready(v);
    --remaining_;
    release_successors(v);
    if (static_cast<std::int64_t>(
            partition_.blocks[static_cast<std::size_t>(open_block_)].size()) >= num_pes_) {
      close_block();
    }
  }

  void close_block() { open_block_ = -1; }

  [[nodiscard]] SpatialPartition take() {
    // Drop a trailing empty block if one was opened but never filled.
    while (!partition_.blocks.empty() && partition_.blocks.back().empty()) {
      partition_.blocks.pop_back();
    }
    return std::move(partition_);
  }

 private:
  void on_ready(NodeId v) {
    if (graph_.kind(v) == NodeKind::kBuffer) {
      // Buffer nodes are backing memory, not tasks: absorb them as soon as
      // all producers are placed; they never consume a PE slot.
      release_successors(v);
    } else {
      ready_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(ready_size_);
      ready_storage_[ready_size_++] = v;
    }
  }

  void release_successors(NodeId v) {
    for (const EdgeId e : graph_.out_edges(v)) {
      const NodeId w = graph_.edge(e).dst;
      if (--pending_in_[static_cast<std::size_t>(w)] == 0) on_ready(w);
    }
  }

  // O(1) swap-remove via the node -> ready-index map (the former linear
  // std::find scan dominated partitioning time on wide graphs).
  void remove_ready(NodeId v) {
    const std::int32_t pos = ready_pos_[static_cast<std::size_t>(v)];
    if (pos < 0) return;
    const NodeId moved = ready_storage_[ready_size_ - 1];
    ready_storage_[static_cast<std::size_t>(pos)] = moved;
    ready_pos_[static_cast<std::size_t>(moved)] = pos;
    --ready_size_;
    ready_pos_[static_cast<std::size_t>(v)] = -1;
  }

  const TaskGraph& graph_;
  std::int64_t num_pes_;
  SpatialPartition partition_;
  std::span<std::size_t> pending_in_;
  std::span<std::int32_t> ready_pos_;  ///< node -> index in ready set; -1 if absent
  std::span<NodeId> ready_storage_;    ///< first ready_size_ slots hold the ready set
  std::span<std::int64_t> chain_min_;
  std::size_t ready_size_ = 0;
  std::int32_t open_block_ = -1;
  std::size_t remaining_ = 0;
};

/// Grain for the ready-set argmin fan-out: below this many candidates the
/// scan stays on the calling thread (fork-join overhead would dominate).
/// 256 elements cost a few microseconds per chunk — enough to amortise the
/// pool's fork-join latency while still splitting a layer-wide ready set
/// (a few thousand candidates) across all four lanes of the latency gate.
constexpr std::int64_t kArgminGrain = 256;

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
  Workspace local;
  Workspace& work = ws ? *ws : local;
  PartitionBuilder builder(graph, num_pes, work);
  const std::vector<Rational> level = node_levels(graph, &work);
  CanonicalPartitionIndex owned_index;
  if (!index) {
    owned_index = canonical_partition_index(graph, level);
    index = &owned_index;
  }
  const std::vector<std::int32_t>& rank = index->rank;

  // Strict-total-order comparators ("does v beat the incumbent b?"). The
  // serial loop's first-then-strict-improve scan computes the unique minimum
  // under these orders, so reducing per-chunk winners in any grouping yields
  // the same node — the parallel argmin is bit-identical to serial.
  const auto eligible_beats = [&](NodeId v, NodeId b) {
    if (b == kInvalidNode) return v != kInvalidNode;
    if (v == kInvalidNode) return false;
    // Primary criterion per Algorithm 1; ties broken by node level, then
    // produced volume, then canonical rank (deterministic AND invariant
    // under node-id renumbering — candidates are always same-component, so
    // ranks never collide).
    const auto& lv = level[static_cast<std::size_t>(v)];
    const auto& lb = level[static_cast<std::size_t>(b)];
    if (lv != lb) return lv < lb;
    const auto ov = graph.output_volume(v);
    const auto ob = graph.output_volume(b);
    if (ov != ob) return ov < ob;
    return rank[static_cast<std::size_t>(v)] < rank[static_cast<std::size_t>(b)];
  };
  const auto relaxed_beats = [&](NodeId v, NodeId b) {
    if (b == kInvalidNode) return v != kInvalidNode;
    if (v == kInvalidNode) return false;
    // SB-RLX fallback: least produced volume, then level, then rank.
    const auto ov = graph.output_volume(v);
    const auto ob = graph.output_volume(b);
    if (ov != ob) return ov < ob;
    const auto& lv = level[static_cast<std::size_t>(v)];
    const auto& lb = level[static_cast<std::size_t>(b)];
    if (lv != lb) return lv < lb;
    return rank[static_cast<std::size_t>(v)] < rank[static_cast<std::size_t>(b)];
  };

  struct Best {
    NodeId eligible = kInvalidNode;
    NodeId relaxed = kInvalidNode;
  };
  for (std::int32_t c = 0; c < index->count; ++c) {
    const std::span<const NodeId> component = index->nodes(c);
    builder.seed(component);
    const std::size_t target = builder.remaining() - pe_node_count(graph, component);
    while (builder.remaining() > target) {
      const std::span<const NodeId> ready = builder.ready();
      if (ready.empty()) {
        throw std::logic_error("partition: no ready node (cyclic graph?)");
      }
      const Best best = work.parallel.map_reduce(
          static_cast<std::int64_t>(ready.size()), kArgminGrain, Best{},
          [&](std::int64_t lo, std::int64_t hi, Best& acc) {
            for (std::int64_t i = lo; i < hi; ++i) {
              const NodeId v = ready[static_cast<std::size_t>(i)];
              const std::int64_t bound = builder.source_volume_bound(v);
              if (bound == kNoConstraint || graph.output_volume(v) <= bound) {
                if (eligible_beats(v, acc.eligible)) acc.eligible = v;
              } else if (variant == PartitionVariant::kRLX) {
                if (relaxed_beats(v, acc.relaxed)) acc.relaxed = v;
              }
            }
          },
          [&](Best& into, const Best& from) {
            if (eligible_beats(from.eligible, into.eligible)) into.eligible = from.eligible;
            if (relaxed_beats(from.relaxed, into.relaxed)) into.relaxed = from.relaxed;
          });
      if (best.eligible != kInvalidNode) {
        builder.assign(best.eligible);
      } else if (variant == PartitionVariant::kRLX && best.relaxed != kInvalidNode) {
        builder.assign(best.relaxed);
      } else {
        // SB-LTS: nothing safe to add; seal the block and start a fresh one
        // (every candidate is then a block source and becomes eligible).
        builder.close_block();
      }
    }
    // Component boundary: blocks never span components, so the per-component
    // schedule fragments downstream stay independently reusable.
    builder.close_block();
  }
  return builder.take();
}

SpatialPartition partition_by_work(const TaskGraph& graph, std::int64_t num_pes, Workspace* ws,
                                   const CanonicalPartitionIndex* index) {
  Workspace local;
  Workspace& work = ws ? *ws : local;
  PartitionBuilder builder(graph, num_pes, work);
  const std::vector<Rational> level = node_levels(graph, &work);
  CanonicalPartitionIndex owned_index;
  if (!index) {
    owned_index = canonical_partition_index(graph, level);
    index = &owned_index;
  }
  const std::vector<std::int32_t>& rank = index->rank;

  // Highest work first, ties by lowest level then canonical rank — a strict
  // total order, so the chunked reduction is exact (see
  // partition_spatial_blocks).
  const auto beats = [&](NodeId v, NodeId b) {
    if (b == kInvalidNode) return v != kInvalidNode;
    if (v == kInvalidNode) return false;
    const std::int64_t wv = graph.work(v);
    const std::int64_t wb = graph.work(b);
    if (wv != wb) return wv > wb;
    const auto& lv = level[static_cast<std::size_t>(v)];
    const auto& lb = level[static_cast<std::size_t>(b)];
    if (lv != lb) return lv < lb;
    return rank[static_cast<std::size_t>(v)] < rank[static_cast<std::size_t>(b)];
  };

  for (std::int32_t c = 0; c < index->count; ++c) {
    const std::span<const NodeId> component = index->nodes(c);
    builder.seed(component);
    const std::size_t target = builder.remaining() - pe_node_count(graph, component);
    while (builder.remaining() > target) {
      const std::span<const NodeId> ready = builder.ready();
      if (ready.empty()) {
        throw std::logic_error("partition_by_work: no ready node (cyclic graph?)");
      }
      const NodeId best = work.parallel.map_reduce(
          static_cast<std::int64_t>(ready.size()), kArgminGrain, kInvalidNode,
          [&](std::int64_t lo, std::int64_t hi, NodeId& acc) {
            for (std::int64_t i = lo; i < hi; ++i) {
              const NodeId v = ready[static_cast<std::size_t>(i)];
              if (beats(v, acc)) acc = v;
            }
          },
          [&](NodeId& into, const NodeId& from) {
            if (beats(from, into)) into = from;
          });
      builder.assign(best);  // blocks cut automatically every num_pes nodes
    }
    builder.close_block();  // blocks never span components
  }
  return builder.take();
}

bool partition_is_valid(const TaskGraph& graph, const SpatialPartition& partition,
                        std::int64_t num_pes) {
  if (partition.block_of.size() != graph.node_count()) return false;
  std::vector<std::size_t> seen(partition.blocks.size(), 0);
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    const auto block = partition.block_of[static_cast<std::size_t>(v)];
    if (graph.occupies_pe(v)) {
      if (block < 0 || static_cast<std::size_t>(block) >= partition.blocks.size()) return false;
      ++seen[static_cast<std::size_t>(block)];
    } else if (block != -1) {
      return false;  // buffer nodes carry no block
    }
  }
  for (std::size_t b = 0; b < partition.blocks.size(); ++b) {
    if (partition.blocks[b].empty()) return false;
    if (static_cast<std::int64_t>(partition.blocks[b].size()) > num_pes) return false;
    if (seen[b] != partition.blocks[b].size()) return false;
  }
  // Dependencies must not point backwards across blocks; buffer nodes relay
  // the max block of their producers.
  std::vector<std::int32_t> effective(partition.block_of.begin(), partition.block_of.end());
  for (const NodeId v : topological_order(graph)) {
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
