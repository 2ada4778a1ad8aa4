#include "core/streaming_schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"

namespace sts {

namespace {

/// Head latency: time between a node's start and its first output element.
/// Downsamplers accumulate 1/R inputs first, arriving at interval s_in.
std::int64_t head_latency(const TaskGraph& graph, NodeId v, const Rational& s_in) {
  if (graph.kind(v) == NodeKind::kCompute && graph.input_volume(v) > 0) {
    const Rational rate = graph.rate(v);
    if (rate < Rational(1)) {
      return ceil_mul(1, (rate.reciprocal() - Rational(1)) * s_in) + 1;
    }
  }
  return 1;
}

/// Extra time an upsampler needs after its last input to flush its
/// remaining outputs.
std::int64_t tail_extra(const TaskGraph& graph, NodeId v, const Rational& s_out) {
  if (graph.kind(v) == NodeKind::kCompute && graph.input_volume(v) > 0) {
    const Rational rate = graph.rate(v);
    if (rate > Rational(1)) {
      return ((rate - Rational(1)) * s_out).ceil();
    }
  }
  return 0;
}

}  // namespace

StreamingSchedule schedule_streaming(const TaskGraph& graph, SpatialPartition partition,
                                     Workspace* ws) {
  return schedule_streaming(graph, std::move(partition), topological_order(graph), ws);
}

StreamingSchedule schedule_streaming(const TaskGraph& graph, SpatialPartition partition,
                                     std::span<const NodeId> topo, Workspace* ws) {
  Workspace local;
  Workspace& work = ws ? *ws : local;
  Arena& arena = work.arena;

  StreamingSchedule sched;
  sched.timing.assign(graph.node_count(), TaskTiming{});
  const std::size_t n = graph.node_count();
  const std::size_t num_blocks = partition.blocks.size();

  // ---- Per-block active sets -------------------------------------------
  // Block k only ever touches its members plus the buffers feeding them.
  // Visiting exactly that set (instead of rescanning the whole graph per
  // block, the former O(blocks * (N + E)) behavior) makes the sweep O(N + E)
  // total: a member is active in one block; a buffer in at most out-degree
  // many. Two passes over topo order (count, then fill) leave each block's
  // active list in topological order, which the timing recurrences need.
  const std::span<std::size_t> active_offset = arena.alloc_zeroed<std::size_t>(num_blocks + 1);
  const std::span<std::int32_t> stamp = arena.alloc_array<std::int32_t>(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) stamp[b] = -1;

  // A buffer serves every block holding one of its consumers (consumers are
  // non-buffer: buffer chains are rejected by validation). The stamp array
  // dedups multiple consumers in one block.
  const auto for_each_serving_block = [&](NodeId buffer, auto&& fn) {
    for (const EdgeId e : graph.out_edges(buffer)) {
      const auto blk = partition.block_of[static_cast<std::size_t>(graph.edge(e).dst)];
      if (blk < 0) continue;
      if (stamp[static_cast<std::size_t>(blk)] == buffer) continue;
      stamp[static_cast<std::size_t>(blk)] = buffer;
      fn(static_cast<std::size_t>(blk));
    }
  };

  for (const NodeId v : topo) {
    if (graph.kind(v) == NodeKind::kBuffer) {
      for_each_serving_block(v, [&](std::size_t blk) { ++active_offset[blk + 1]; });
    } else {
      const auto blk = partition.block_of[static_cast<std::size_t>(v)];
      if (blk >= 0) ++active_offset[static_cast<std::size_t>(blk) + 1];
    }
  }
  for (std::size_t b = 0; b < num_blocks; ++b) active_offset[b + 1] += active_offset[b];
  const std::span<NodeId> active_nodes = arena.alloc_array<NodeId>(active_offset[num_blocks]);
  {
    const std::span<std::size_t> cursor = arena.alloc_array<std::size_t>(num_blocks);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      cursor[b] = active_offset[b];
      stamp[b] = -1;  // reuse for the fill pass
    }
    for (const NodeId v : topo) {
      if (graph.kind(v) == NodeKind::kBuffer) {
        for_each_serving_block(v, [&](std::size_t blk) { active_nodes[cursor[blk]++] = v; });
      } else {
        const auto blk = partition.block_of[static_cast<std::size_t>(v)];
        if (blk >= 0) active_nodes[cursor[static_cast<std::size_t>(blk)]++] = v;
      }
    }
  }

  // Block-local stream contexts over persistent scratch: only active slots
  // are (re)written, so no per-block O(N) clearing either.
  const StreamScratch scratch = StreamScratch::allocate(arena, n);

  // Per-block buffer head release: FO(buffer) = max predecessors' LO + 1,
  // clamped to the serving block's release (a buffer may feed several
  // blocks; every consumer edge re-streams from memory independently).
  const std::span<std::int64_t> head_fo = arena.alloc_zeroed<std::int64_t>(n);
  const std::span<std::uint8_t> buffer_timed = arena.alloc_zeroed<std::uint8_t>(n);

  std::int64_t block_release = 0;
  for (std::size_t k = 0; k < num_blocks; ++k) {
    const auto block_id = static_cast<std::int32_t>(k);
    const std::span<const NodeId> active =
        active_nodes.subspan(active_offset[k], active_offset[k + 1] - active_offset[k]);
    block_stream_context(graph, partition.block_of, block_id, active, scratch);

    // ---- Timing recurrences over the active set (topological order) ----
    std::int64_t block_finish = block_release;
    for (const NodeId v : active) {
      const auto idx = static_cast<std::size_t>(v);

      if (graph.kind(v) == NodeKind::kBuffer) {
        std::int64_t ready = block_release;
        for (const EdgeId e : graph.in_edges(v)) {
          ready = std::max(ready,
                           sched.timing[static_cast<std::size_t>(graph.edge(e).src)].last_out);
        }
        head_fo[idx] = ready + 1;
        if (!buffer_timed[idx]) {
          buffer_timed[idx] = 1;
          TaskTiming& t = sched.timing[idx];
          t.start = head_fo[idx] - 1;
          t.first_out = head_fo[idx];
          t.s_out = scratch.s_out[idx];
          t.last_out = head_fo[idx] + ceil_mul(graph.output_volume(v) - 1, t.s_out);
          t.block = -1;
          t.pe = -1;
        }
        continue;
      }

      TaskTiming& t = sched.timing[idx];
      t.block = block_id;
      t.s_in = scratch.s_in[idx];
      t.s_out = scratch.s_out[idx];

      // Streaming predecessors: same-block members and buffer heads. Other
      // predecessors finished in earlier blocks; their data sits in memory
      // and is read at full rate.
      std::int64_t start = block_release;
      bool member_pred = false;
      bool buffer_pred = false;
      for (const EdgeId e : graph.in_edges(v)) {
        const NodeId u = graph.edge(e).src;
        const auto uidx = static_cast<std::size_t>(u);
        if (graph.kind(u) == NodeKind::kBuffer) {
          buffer_pred = true;
          start = std::max(start, head_fo[uidx]);
        } else if (partition.block_of[uidx] == block_id) {
          member_pred = true;
          start = std::max(start, sched.timing[uidx].first_out);
        }
      }
      const bool block_source = !member_pred && !buffer_pred;
      t.start = block_source ? block_release : start;

      // Block sources read global memory at full rate (one element per unit
      // per port); everything else ingests at the component's steady-state
      // interval.
      const Rational ingest_interval = block_source ? Rational(1) : t.s_in;
      t.first_out = t.start + head_latency(graph, v, ingest_interval);

      // LO(v): the Section 5.1 recurrence over streaming predecessors plus
      // the pacing bounds for memory-fed nodes.
      std::int64_t lo = 0;
      const std::int64_t tail1 = 1 + tail_extra(graph, v, t.s_out);
      for (const EdgeId e : graph.in_edges(v)) {
        const NodeId u = graph.edge(e).src;
        const auto uidx = static_cast<std::size_t>(u);
        if (graph.kind(u) == NodeKind::kBuffer) {
          // Per-edge head replay: O(b) elements at the consumer's interval.
          const std::int64_t head_lo =
              head_fo[uidx] + ceil_mul(graph.output_volume(u) - 1, t.s_in);
          lo = std::max(lo, head_lo + tail1);
        } else if (partition.block_of[uidx] == block_id) {
          lo = std::max(lo, sched.timing[uidx].last_out + tail1);
        }
      }
      if (block_source) {
        // Output-paced: O elements at S_o after the first; plus the rate-1
        // ingestion floor.
        if (graph.output_volume(v) > 0) {
          lo = std::max(lo, t.first_out + ceil_mul(graph.output_volume(v) - 1, t.s_out));
        }
        if (graph.input_volume(v) > 0) {
          lo = std::max(lo, t.start + graph.input_volume(v));
        }
      } else if (graph.input_volume(v) > 0) {
        // Steady-state ingestion bound (covers mixed memory/stream inputs).
        lo = std::max(lo, t.start + ceil_mul(graph.input_volume(v) - 1, t.s_in) +
                              tail_extra(graph, v, t.s_out) + 1);
      }
      t.last_out = lo;
      if (graph.kind(v) == NodeKind::kSink) t.first_out = t.start + 1;

      block_finish = std::max(block_finish, t.last_out);
    }

    // PE assignment: position within the block.
    const auto& members = partition.blocks[k];
    for (std::size_t i = 0; i < members.size(); ++i) {
      sched.timing[static_cast<std::size_t>(members[i])].pe = static_cast<std::int32_t>(i);
    }

    sched.block_start.push_back(block_release);
    sched.block_end.push_back(block_finish);
    block_release = block_finish;
  }

  sched.makespan = sched.block_end.empty() ? 0 : sched.block_end.back();
  sched.partition = std::move(partition);
  return sched;
}

}  // namespace sts
