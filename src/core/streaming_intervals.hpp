#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/task_graph.hpp"
#include "support/arena.hpp"
#include "support/rational.hpp"

namespace sts {

/// Steady-state streaming intervals of a (sub-)graph (paper Section 4.1).
///
/// Theorem 4.1: within a weakly connected component of the buffer-split
/// graph, S_o(v) = max_{u in WCC} O(u) / O(v). Components are formed by the
/// direct (non-buffer) edges between co-scheduled tasks: buffer nodes are
/// backing memory, and every buffer-incident edge is an independent stream
/// attached to its non-buffer endpoint's component.
///
/// Two extensions make the analysis exact for spatial blocks:
///  - a block source (all stream predecessors in earlier blocks) reads its
///    I(v) elements from global memory; that stream joins the component's
///    steady state, otherwise the node could be scheduled to emit faster
///    than it can ingest;
///  - a buffer head feeding a member contributes its per-edge emission
///    volume O(b) to the consumer's component for the same reason.
/// For a whole graph analyzed as one block these rules reduce exactly to
/// Theorem 4.1.
struct StreamContext {
  /// Per node: S_i(v) = maxvol(WCC)/I(v); 0 when I(v) == 0 or not a member.
  std::vector<Rational> s_in;
  /// Per node: S_o(v) = maxvol(WCC)/O(v); for a buffer node, the slowest of
  /// its per-edge emission intervals (buffer replays are per-edge streams;
  /// the per-edge interval equals the consumer's S_i). 0 when undefined.
  std::vector<Rational> s_out;
  /// WCC id per member node; -1 for buffers and non-members.
  std::vector<std::int32_t> node_wcc;
  /// Per WCC: the dominating volume (max of member O, block-source I, and
  /// incoming buffer-head O).
  std::vector<std::int64_t> wcc_max;

  [[nodiscard]] bool in_context(NodeId v) const {
    return node_wcc[static_cast<std::size_t>(v)] >= 0;
  }
};

/// Computes streaming intervals for the members of spatial block `block_id`
/// under assignment `block_of` (one entry per node; buffer nodes use -1 and
/// are handled through their incident edges).
///
/// Passing block_id == kWholeGraph treats every PE-occupying node as
/// co-scheduled, which is the infinite-PE analysis of Section 4.
inline constexpr std::int32_t kWholeGraph = -2;

[[nodiscard]] StreamContext compute_stream_context(const TaskGraph& graph,
                                                   std::span<const std::int32_t> block_of,
                                                   std::int32_t block_id);

/// Per-node scratch of block_stream_context: every span is sized to the
/// graph's node count and indexed by NodeId. A run scheduling block after
/// block keeps one for all of them, since the kernel reads and writes only
/// the slots of the block's active nodes.
struct StreamScratch {
  std::span<NodeId> parent;          ///< union-find forest over the block's members
  std::span<std::int64_t> root_max;  ///< at each component root: the dominating volume
  std::span<Rational> s_in;          ///< per member: S_i
  std::span<Rational> s_out;         ///< per active node: S_o

  /// Uninitialized spans for a graph of `nodes` nodes, from `arena`.
  [[nodiscard]] static StreamScratch allocate(Arena& arena, std::size_t nodes);
};

/// The stream context of block `block_id` under `block_of` (a real block id,
/// not kWholeGraph), computed over `active`: the block's members and every
/// buffer feeding one, in any order (a buffer feeding no member gets
/// S_o = 0). Writes S_i of every member, S_o of every active node, and
/// leaves the members' components in scratch.parent with each root's
/// dominating volume in scratch.root_max.
/// O(active nodes + their edges); compute_stream_context and
/// schedule_streaming both run on it.
void block_stream_context(const TaskGraph& graph, std::span<const std::int32_t> block_of,
                          std::int32_t block_id, std::span<const NodeId> active,
                          const StreamScratch& scratch);

/// Whole-graph streaming intervals (Theorem 4.1).
[[nodiscard]] StreamContext streaming_intervals(const TaskGraph& graph);

}  // namespace sts
