#include "core/buffer_sizing.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"

namespace sts {

BufferPlan compute_buffer_plan(const TaskGraph& graph, const StreamingSchedule& schedule,
                               std::int64_t default_capacity) {
  if (default_capacity < 1) {
    throw std::invalid_argument("compute_buffer_plan: default capacity must be >= 1");
  }
  BufferPlan plan;
  const auto& block_of = schedule.partition.block_of;

  // Scratch shared by every block. A block reads `local` only at its own
  // members, which it has just written, so one node_count()-sized array
  // serves the whole plan.
  std::vector<std::int32_t> local(graph.node_count(), -1);
  std::vector<std::size_t> in_block_preds;
  std::vector<std::int64_t> max_fo;
  std::vector<std::pair<std::int32_t, std::int32_t>> undirected;
  std::vector<EdgeId> edge_ids;
  for (std::size_t k = 0; k < schedule.partition.blocks.size(); ++k) {
    const auto block_id = static_cast<std::int32_t>(k);
    const auto& members = schedule.partition.blocks[k];

    // Local index of the block's streaming subgraph (buffer nodes excluded:
    // data parked in memory can always be re-read, so no deadlock through
    // them).
    for (std::size_t i = 0; i < members.size(); ++i) {
      local[static_cast<std::size_t>(members[i])] = static_cast<std::int32_t>(i);
    }
    undirected.clear();
    edge_ids.clear();
    for (const NodeId v : members) {
      for (const EdgeId e : graph.out_edges(v)) {
        const NodeId w = graph.edge(e).dst;
        if (block_of[static_cast<std::size_t>(w)] == block_id) {
          undirected.emplace_back(local[static_cast<std::size_t>(v)],
                                  local[static_cast<std::size_t>(w)]);
          edge_ids.push_back(e);
        }
      }
    }
    if (edge_ids.empty()) continue;
    const std::vector<bool> on_cycle =
        edges_on_undirected_cycles(members.size(), undirected);

    // Eq. 5 applies to nodes with more than one in-block predecessor that
    // lie on an undirected cycle of the streaming subgraph; it reads the
    // latest first output among those predecessors.
    in_block_preds.assign(members.size(), 0);
    max_fo.assign(members.size(), 0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (const EdgeId ie : graph.in_edges(members[i])) {
        const NodeId t = graph.edge(ie).src;
        if (block_of[static_cast<std::size_t>(t)] == block_id) {
          ++in_block_preds[i];
          max_fo[i] = std::max(max_fo[i], schedule.at(t).first_out);
        }
      }
    }

    for (std::size_t i = 0; i < edge_ids.size(); ++i) {
      const EdgeId e = edge_ids[i];
      const Edge& edge = graph.edge(e);
      ChannelPlan channel;
      channel.edge = e;
      channel.on_undirected_cycle = on_cycle[i];

      const auto v = static_cast<std::size_t>(undirected[i].second);
      if (on_cycle[i] && in_block_preds[v] > 1) {
        const NodeId u = edge.src;
        const Rational s_out = schedule.at(u).s_out;
        const Rational delay(max_fo[v] - schedule.at(u).first_out);
        channel.eq5_requirement = s_out > Rational(0) ? (delay / s_out).ceil() : 0;
      }
      // Allocation: Eq. 5 delay absorption + credit slack, capped at volume.
      channel.capacity = std::min(
          edge.volume, std::max(channel.eq5_requirement + default_capacity - 1,
                                default_capacity));
      plan.total_capacity += channel.capacity;
      plan.channels.push_back(channel);
    }
  }
  return plan;
}

}  // namespace sts
