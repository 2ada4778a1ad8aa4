#include "pipeline/subgraph_cache.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "graph/serialization.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/registry.hpp"
#include "support/hash.hpp"
#include "support/rational.hpp"

namespace sts {

std::shared_ptr<const ScheduleResult> SubgraphCache::find(std::uint64_t hash,
                                                          const std::string& context,
                                                          const std::string& form, bool delta) {
  const MutexLock lock(mutex_);
  if (const auto* hit = lru_.find(hash, std::tie(context, form))) {
    ++stats_.partition_hits;
    return *hit;
  }
  ++stats_.partition_misses;
  if (delta) ++stats_.delta_invalidated;
  return nullptr;
}

std::shared_ptr<const ScheduleResult> SubgraphCache::insert(std::uint64_t hash,
                                                            std::string context,
                                                            std::string form,
                                                            ScheduleResult fragment,
                                                            std::size_t weight) {
  auto owned = std::make_shared<const ScheduleResult>(std::move(fragment));
  const MutexLock lock(mutex_);
  // A concurrent insert that won the race keeps its entry; a fragment
  // heavier than the whole cache is refused and returned uncached.
  const auto inserted =
      lru_.insert(hash, {std::move(context), std::move(form)}, owned, weight);
  return inserted.value != nullptr ? *inserted.value : owned;
}

void SubgraphCache::note_assembled(std::size_t fragment_count) {
  const MutexLock lock(mutex_);
  stats_.fragments_assembled += fragment_count;
}

SubgraphCache::Stats SubgraphCache::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

std::size_t SubgraphCache::size() const {
  const MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t SubgraphCache::total_weight() const {
  const MutexLock lock(mutex_);
  return lru_.total_weight();
}

namespace {

bool composable_scheduler(const std::string& scheduler, const MachineConfig& machine) {
  if (machine.place_on_mesh) return false;
  return scheduler == "streaming-lts" || scheduler == "streaming-rlx" ||
         scheduler == "streaming-work";
}

std::string fragment_context(const std::string& scheduler, const MachineConfig& machine) {
  std::string context;
  context.reserve(32 + scheduler.size());
  context += "scheduler=";
  context += scheduler;
  context += '\n';
  context += machine.cache_key();
  return context;
}

/// Combines the context digest with a partition's precomputed form digest
/// into one bucket hash (splitmix64-style avalanche, mirroring the combine
/// in result_fingerprint.cpp). Only a bucket selector — probes compare both
/// strings in full.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Stitches per-partition fragments into whole-graph coordinates. Fragment c
/// is the ScheduleResult of partition c materialized in canonical node order,
/// so local node id i == index.nodes(c)[i] and local edge ids enumerate the
/// partition's out-edges in (canonical node, insertion) order — the same
/// order materialize_partition records them. Times shift by the cumulative
/// makespan of preceding partitions (the streaming recurrences are
/// translation-invariant in the block release time), block indices by the
/// cumulative block count; metrics are recomputed globally with the exact
/// MetricsPass formulas so every double matches a cold run bit-for-bit.
///
/// A prefix pass fixes every partition's destination offsets, so the arrays
/// are sized once and each partition writes its own slice. The whole-graph
/// streaming depth behind slr is the max of the fragments' depths: the
/// supernode DAG of the depth bound never crosses partition boundaries (its
/// edges follow buffer edges, which stay inside a weakly connected
/// partition), so the longest path in the whole graph's DAG is the max over
/// the partitions' longest paths — the one whole-graph O(n) recurrence
/// assembly gets to skip.
ScheduleResult assemble_from_fragments(
    const std::string& scheduler, const TaskGraph& graph, const MachineConfig& machine,
    const CanonicalPartitionIndex& index,
    const std::vector<std::shared_ptr<const ScheduleResult>>& fragments) {
  const std::size_t n = graph.node_count();
  const auto pcount = static_cast<std::size_t>(index.count);

  std::vector<std::int64_t> time_offset(pcount + 1, 0);
  std::vector<std::size_t> block_offset(pcount + 1, 0);
  std::vector<std::size_t> start_offset(pcount + 1, 0);
  std::vector<std::size_t> end_offset(pcount + 1, 0);
  std::vector<std::size_t> channel_offset(pcount + 1, 0);
  std::int64_t total_capacity = 0;
  for (std::size_t c = 0; c < pcount; ++c) {
    const ScheduleResult& fragment = *fragments[c];
    const StreamingSchedule& ls = *fragment.streaming;
    // The next partition's blocks release when this one's last block ends —
    // exactly the cold scheduler's running block_release.
    time_offset[c + 1] = time_offset[c] + ls.makespan;
    block_offset[c + 1] = block_offset[c] + ls.partition.blocks.size();
    start_offset[c + 1] = start_offset[c] + ls.block_start.size();
    end_offset[c + 1] = end_offset[c] + ls.block_end.size();
    channel_offset[c + 1] = channel_offset[c] + fragment.buffers->channels.size();
    total_capacity += fragment.buffers->total_capacity;
  }

  StreamingSchedule assembled;
  assembled.partition.block_of.assign(n, -1);
  assembled.timing.assign(n, TaskTiming{});
  assembled.partition.blocks.resize(block_offset[pcount]);
  assembled.block_start.resize(start_offset[pcount]);
  assembled.block_end.resize(end_offset[pcount]);
  BufferPlan buffers;
  buffers.channels.resize(channel_offset[pcount]);
  buffers.total_capacity = total_capacity;

  std::vector<EdgeId> edge_ids;
  for (std::size_t c = 0; c < pcount; ++c) {
    const std::span<const NodeId> nodes = index.nodes(static_cast<std::int32_t>(c));
    const ScheduleResult& fragment = *fragments[c];
    const StreamingSchedule& ls = *fragment.streaming;
    const std::int64_t toff = time_offset[c];
    const auto block_base = static_cast<std::int32_t>(block_offset[c]);

    for (std::size_t b = 0; b < ls.partition.blocks.size(); ++b) {
      const std::vector<NodeId>& block = ls.partition.blocks[b];
      std::vector<NodeId>& mapped = assembled.partition.blocks[block_offset[c] + b];
      mapped.reserve(block.size());
      for (const NodeId lv : block) mapped.push_back(nodes[static_cast<std::size_t>(lv)]);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto v = static_cast<std::size_t>(nodes[i]);
      TaskTiming t = ls.timing[i];
      // Untimed nodes (buffers serving no block) keep the default record:
      // every timed node has first_out >= block_release + 1 >= 1.
      if (t.block < 0 && t.first_out == 0) {
        assembled.timing[v] = t;
        continue;
      }
      t.start += toff;
      t.first_out += toff;
      t.last_out += toff;
      if (t.block >= 0) {
        t.block += block_base;
        assembled.partition.block_of[v] = t.block;
      }
      assembled.timing[v] = t;
    }
    for (std::size_t b = 0; b < ls.block_start.size(); ++b) {
      assembled.block_start[start_offset[c] + b] = ls.block_start[b] + toff;
    }
    for (std::size_t b = 0; b < ls.block_end.size(); ++b) {
      assembled.block_end[end_offset[c] + b] = ls.block_end[b] + toff;
    }

    const BufferPlan& lb = *fragment.buffers;
    if (!lb.channels.empty()) {
      // Rebuild the partition's local-edge-id -> global EdgeId map by
      // walking out-edges in the materialization order.
      edge_ids.clear();
      for (const NodeId v : nodes) {
        for (const EdgeId e : graph.out_edges(v)) edge_ids.push_back(e);
      }
      for (std::size_t k = 0; k < lb.channels.size(); ++k) {
        ChannelPlan channel = lb.channels[k];
        channel.edge = edge_ids[static_cast<std::size_t>(channel.edge)];
        buffers.channels[channel_offset[c] + k] = channel;
      }
    }
  }
  assembled.makespan = assembled.block_end.empty() ? 0 : assembled.block_end.back();

  ScheduleResult result;
  result.scheduler = scheduler;
  result.makespan = assembled.makespan;

  Rational depth(0);
  for (const auto& fragment : fragments) depth = std::max(depth, fragment->depth);
  result.depth = depth;

  // Same formulas (and evaluation order) as MetricsPass::run.
  ScheduleMetrics m;
  const std::int64_t t1 = graph.total_work();
  if (result.makespan > 0) m.speedup = speedup(t1, result.makespan);
  m.slr = streaming_slr(assembled.makespan, depth);
  m.utilization = streaming_utilization(graph, assembled, machine.num_pes);
  m.fifo_capacity = buffers.total_capacity;
  result.metrics = m;

  result.streaming = std::move(assembled);
  result.buffers = std::move(buffers);
  return result;
}

}  // namespace

ScheduleResult schedule_with_subgraph_cache(const std::string& scheduler,
                                            const TaskGraph& graph,
                                            const MachineConfig& machine,
                                            SubgraphCache& cache, bool delta_request) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();

  // List/HEFT/CSDF results and mesh placements carry node ids verbatim, so
  // they are only reusable for a bit-identical graph, which the caller's
  // whole-graph ScheduleCache already memoizes.
  if (!composable_scheduler(scheduler, machine)) return schedule_by_name(scheduler, graph, machine);

  std::vector<std::shared_ptr<const PartitionCanonMemo::Ranks>> canon;
  const std::optional<CanonicalPartitionIndex> composite =
      composite_partition_index(graph, cache.canon_memo(), &canon);
  // One partition: nothing to compose, and its repeats are whole-graph
  // ScheduleCache hits, so it is scheduled whole and stored nowhere.
  if (!composite) return schedule_by_name(scheduler, graph, machine);
  const CanonicalPartitionIndex& index = *composite;
  const Clock::time_point canonicalized = Clock::now();
  const std::string context = fragment_context(scheduler, machine);
  const std::uint64_t context_digest = fnv1a64(context);
  std::vector<std::shared_ptr<const ScheduleResult>> fragments(
      static_cast<std::size_t>(index.count));
  for (std::int32_t c = 0; c < index.count; ++c) {
    const PartitionCanonMemo::Ranks& ranks = *canon[static_cast<std::size_t>(c)];
    const std::uint64_t hash = mix64(context_digest, ranks.form_digest);
    auto fragment = cache.find(hash, context, ranks.form, delta_request);
    if (!fragment) {
      // The partition is numbered by canonical rank, so its own index is the
      // identity and its pipeline never canonicalizes it a second time.
      const TaskGraph local = materialize_partition(graph, index, c);
      const CanonicalPartitionIndex local_index = materialized_partition_index(index, c);
      fragment = cache.insert(
          hash, context, ranks.form,
          SchedulerRegistry::instance().create(scheduler)->schedule(local, machine, &local_index),
          local.node_count());
    }
    fragments[static_cast<std::size_t>(c)] = std::move(fragment);
  }
  cache.note_assembled(fragments.size());
  const Clock::time_point probed = Clock::now();

  ScheduleResult result = assemble_from_fragments(scheduler, graph, machine, index, fragments);
  result.timings.push_back(
      {"subgraph-canonicalize", std::chrono::duration<double>(canonicalized - begin).count()});
  result.timings.push_back(
      {"subgraph-fragments", std::chrono::duration<double>(probed - canonicalized).count()});
  result.timings.push_back(
      {"subgraph-assembly", std::chrono::duration<double>(Clock::now() - probed).count()});
  return result;
}

}  // namespace sts
