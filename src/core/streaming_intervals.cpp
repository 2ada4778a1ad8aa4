#include "core/streaming_intervals.hpp"

#include <algorithm>

namespace sts {

StreamScratch StreamScratch::allocate(Arena& arena, std::size_t nodes) {
  return {arena.alloc_array<NodeId>(nodes), arena.alloc_array<std::int64_t>(nodes),
          arena.alloc_array<Rational>(nodes), arena.alloc_array<Rational>(nodes)};
}

void block_stream_context(const TaskGraph& graph, std::span<const std::int32_t> block_of,
                          std::int32_t block_id, std::span<const NodeId> active,
                          const StreamScratch& scratch) {
  // One profile table read for every volume below.
  const std::span<const NodeProfile> profile = graph.profiles();
  const auto is_member = [&](NodeId u) {
    return graph.kind(u) != NodeKind::kBuffer &&
           block_of[static_cast<std::size_t>(u)] == block_id;
  };

  // Components over member-to-member edges only (buffer-incident edges are
  // independent memory streams); each such edge is an in-edge of its member
  // head. One scan of the members' in-edges unites them and leaves in
  // root_max[v] the volume member v alone imposes; the next pass raises each
  // root's slot to its component's maximum (a root's slot already holds its
  // own volume, and no other slot is read again).
  for (const NodeId v : active) {
    if (is_member(v)) scratch.parent[static_cast<std::size_t>(v)] = v;
  }
  for (const NodeId v : active) {
    if (!is_member(v)) continue;
    const NodeProfile& pv = profile[static_cast<std::size_t>(v)];
    std::int64_t volume = pv.out_volume;
    // Block-source / buffer-fed ingestion: streams arriving from memory join
    // the component's steady state with their per-edge volume.
    bool direct_stream_pred = false;
    for (const EdgeId e : graph.in_edges(v)) {
      const NodeId u = graph.edge(e).src;
      if (graph.kind(u) == NodeKind::kBuffer) {
        // The buffer head replays its per-edge volume.
        volume = std::max(volume, profile[static_cast<std::size_t>(u)].out_volume);
      } else if (block_of[static_cast<std::size_t>(u)] == block_id) {
        direct_stream_pred = true;
        unite(scratch.parent, u, v);
      }
    }
    // I(v) > 0 exactly when v has an in-edge (volumes are positive).
    if (!direct_stream_pred && pv.in_volume > 0) volume = std::max(volume, pv.in_volume);
    scratch.root_max[static_cast<std::size_t>(v)] = volume;
  }
  for (const NodeId v : active) {
    if (!is_member(v)) continue;
    auto& slot = scratch.root_max[static_cast<std::size_t>(find_root(scratch.parent, v))];
    slot = std::max(slot, scratch.root_max[static_cast<std::size_t>(v)]);
  }

  for (const NodeId v : active) {
    const auto idx = static_cast<std::size_t>(v);
    const NodeProfile& pv = profile[idx];
    if (is_member(v)) {
      const std::int64_t maxvol = scratch.root_max[static_cast<std::size_t>(
          find_root(scratch.parent, v))];
      scratch.s_in[idx] = pv.in_volume > 0 ? Rational(maxvol, pv.in_volume) : Rational(0);
      scratch.s_out[idx] = pv.out_volume > 0 ? Rational(maxvol, pv.out_volume) : Rational(0);
    } else if (pv.out_volume > 0) {
      // Buffer: the slowest per-edge emission interval towards this block's
      // members (buffer replays are per-edge streams; the per-edge interval
      // equals the consumer's S_i).
      Rational slowest(0);
      for (const EdgeId e : graph.out_edges(v)) {
        const NodeId w = graph.edge(e).dst;
        if (!is_member(w)) continue;
        slowest = std::max(
            slowest, Rational(scratch.root_max[static_cast<std::size_t>(
                                  find_root(scratch.parent, w))],
                              pv.out_volume));
      }
      scratch.s_out[idx] = slowest;
    } else {
      scratch.s_out[idx] = Rational(0);
    }
  }
}

StreamContext compute_stream_context(const TaskGraph& graph,
                                     std::span<const std::int32_t> block_of,
                                     std::int32_t block_id) {
  const std::size_t n = graph.node_count();
  // The whole graph is one block holding every PE-occupying node.
  std::vector<std::int32_t> whole;
  if (block_id == kWholeGraph) {
    whole.assign(n, 0);
    block_of = whole;
    block_id = 0;
  }
  const auto is_member = [&](NodeId v) {
    return graph.kind(v) != NodeKind::kBuffer &&
           block_of[static_cast<std::size_t>(v)] == block_id;
  };
  // The active set in id order: the members and every buffer (one feeding
  // no member gets S_o = 0, as it would outside the active set).
  std::vector<NodeId> active;
  for (NodeId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    if (graph.kind(v) == NodeKind::kBuffer || is_member(v)) active.push_back(v);
  }
  Arena arena;
  const StreamScratch scratch = StreamScratch::allocate(arena, n);
  block_stream_context(graph, block_of, block_id, active, scratch);

  // Components are numbered in order of their lowest member id.
  StreamContext ctx;
  ctx.s_in.assign(n, Rational(0));
  ctx.s_out.assign(n, Rational(0));
  ctx.node_wcc.assign(n, -1);
  std::vector<std::int32_t> compact(n, -1);
  for (const NodeId v : active) {
    const auto idx = static_cast<std::size_t>(v);
    ctx.s_out[idx] = scratch.s_out[idx];
    if (!is_member(v)) continue;
    ctx.s_in[idx] = scratch.s_in[idx];
    const auto root = static_cast<std::size_t>(find_root(scratch.parent, v));
    if (compact[root] < 0) {
      compact[root] = static_cast<std::int32_t>(ctx.wcc_max.size());
      ctx.wcc_max.push_back(scratch.root_max[root]);
    }
    ctx.node_wcc[idx] = compact[root];
  }
  return ctx;
}

StreamContext streaming_intervals(const TaskGraph& graph) {
  return compute_stream_context(graph, {}, kWholeGraph);
}

}  // namespace sts
