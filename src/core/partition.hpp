#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/serialization.hpp"
#include "graph/task_graph.hpp"
#include "support/rational.hpp"
#include "support/workspace.hpp"

namespace sts {

/// Variants of the greedy spatial-block partitioning heuristic (Algorithm 1).
enum class PartitionVariant : std::uint8_t {
  /// SB-LTS: a node joins the open block only if streaming through it cannot
  /// slow the block's sources (its output volume does not exceed the volume
  /// produced by the block sources it depends on). Blocks may stay under P.
  kLTS,
  /// SB-RLX: when no volume-safe candidate exists, admit the ready node with
  /// the smallest produced volume anyway; every block (except the last) holds
  /// exactly P tasks.
  kRLX,
};

[[nodiscard]] const char* to_string(PartitionVariant variant) noexcept;

/// Partition of a canonical task graph into temporally multiplexed spatial
/// blocks of at most P PE-occupying tasks (paper Section 5).
struct SpatialPartition {
  /// PE-occupying nodes of each block in assignment order (order == PE index).
  std::vector<std::vector<NodeId>> blocks;
  /// Per node: owning block, or -1 for buffer nodes (backing memory, no PE).
  std::vector<std::int32_t> block_of;

  [[nodiscard]] std::size_t block_count() const noexcept { return blocks.size(); }
};

/// Greedy spatial-block partitioning (Algorithm 1). Guarantees by
/// construction that inter-block dependencies are acyclic: a node becomes a
/// candidate only after all its predecessors were assigned.
///
/// Eligibility (see DESIGN.md §2.7): a candidate with no direct (non-buffer)
/// predecessor in the open block always qualifies; otherwise its output
/// volume must not exceed the smallest output volume among the open block's
/// sources it depends on. Ties break by (level, volume, canonical rank).
///
/// Both partitioners process the graph's connected partitions (weakly
/// connected components, see canonical_partition_index) one at a time in
/// minimal-node-id order, sealing the open block at every component
/// boundary: blocks never mix components. Together with canonical-rank
/// (renumbering-invariant) tie-breaking this makes the partition — and every
/// downstream pipeline stage — compose per component, which is what lets the
/// SubgraphCache assemble whole-graph results from per-component fragments
/// bit-identically to a cold run. Pass a precomputed `index` to skip the
/// internal canonicalization (it must describe `graph`); without one, the
/// canonicalization seeds from the same node levels the partitioner reads.
///
/// Each pick pops the least ready node under a strict total order from a
/// heap; a partition costs O((N + E) log N). When a Workspace is given, its
/// arena backs the builder scratch and the heaps (no per-node heap
/// allocations).
///
/// This overload computes node_levels(graph) itself; a pipeline run passes
/// the levels it already holds to the next one.
[[nodiscard]] SpatialPartition partition_spatial_blocks(const TaskGraph& graph,
                                                        std::int64_t num_pes,
                                                        PartitionVariant variant,
                                                        Workspace* ws = nullptr,
                                                        const CanonicalPartitionIndex* index = nullptr);

/// As above over `levels` == node_levels(graph).
[[nodiscard]] SpatialPartition partition_spatial_blocks(const TaskGraph& graph,
                                                        std::int64_t num_pes,
                                                        PartitionVariant variant,
                                                        std::span<const Rational> levels,
                                                        Workspace* ws = nullptr,
                                                        const CanonicalPartitionIndex* index = nullptr);

/// Work-ordered partitioning for graphs of element-wise and downsampler
/// nodes (Algorithm 2, Appendix A.2): repeatedly pick the ready node with the
/// highest work (ties by lowest level), cutting blocks every P nodes within
/// each connected partition (same component-sequential order as
/// partition_spatial_blocks). Carries the
/// T_P <= T1/P + T_s_inf + min(n-1, (x-1)(L-1)) guarantee per component.
/// Computes node_levels(graph) itself, like the first partition_spatial_blocks.
[[nodiscard]] SpatialPartition partition_by_work(const TaskGraph& graph, std::int64_t num_pes,
                                                 Workspace* ws = nullptr,
                                                 const CanonicalPartitionIndex* index = nullptr);

/// As above over `levels` == node_levels(graph).
[[nodiscard]] SpatialPartition partition_by_work(const TaskGraph& graph, std::int64_t num_pes,
                                                 std::span<const Rational> levels,
                                                 Workspace* ws = nullptr,
                                                 const CanonicalPartitionIndex* index = nullptr);

/// Checks structural sanity of a partition (used by tests and assertions):
/// every PE node listed exactly once, in the block block_of names, and no
/// other node listed; capacity respected; dependencies flow
/// forward (block_of[u] <= block_of[v] for every edge ignoring buffers).
/// Computes a topological order of `graph` itself.
[[nodiscard]] bool partition_is_valid(const TaskGraph& graph, const SpatialPartition& partition,
                                      std::int64_t num_pes);

/// As above, relaying buffer blocks along the given topological `order` of
/// `graph`; the verdict is the same for every topological order.
[[nodiscard]] bool partition_is_valid(const TaskGraph& graph, const SpatialPartition& partition,
                                      std::int64_t num_pes, std::span<const NodeId> order);

}  // namespace sts
