#include "pipeline/result_fingerprint.hpp"

#include <cstring>
#include <string_view>

namespace sts {

namespace {

/// Incremental FNV-1a over explicitly-fed scalars. Every value goes through
/// a fixed-width two's-complement rendering, so the digest is independent of
/// struct padding and host struct layout; field tags keep adjacent
/// same-typed sequences from aliasing (e.g. an empty vector followed by
/// [1, 2] must not digest like [1] followed by [2]).
class Digest {
 public:
  void tag(char c) noexcept { byte(static_cast<unsigned char>(c)); }

  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v & 0xff));
      v >>= 8;
    }
  }

  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) noexcept {
    // Bit pattern, not value: distinguishes -0.0 from 0.0 and keeps NaNs
    // stable. Metrics are products of deterministic arithmetic, so equal
    // results have equal bit patterns.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) noexcept { byte(v ? 1 : 0); }

  void text(std::string_view s) noexcept {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }

  [[nodiscard]] std::uint64_t finish() const noexcept {
    // Final avalanche, mirroring fnv1a64 in support/hash.hpp.
    std::uint64_t h = hash_;
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ULL;
    h ^= h >> 32;
    return h;
  }

 private:
  void byte(unsigned char b) noexcept { hash_ = (hash_ ^ b) * 0x100000001b3ULL; }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void feed(Digest& d, const SpatialPartition& partition) {
  d.tag('P');
  d.u64(partition.blocks.size());
  for (const std::vector<NodeId>& block : partition.blocks) {
    d.u64(block.size());
    for (const NodeId v : block) d.i64(v);
  }
  d.u64(partition.block_of.size());
  for (const std::int32_t b : partition.block_of) d.i64(b);
}

void feed(Digest& d, const StreamingSchedule& schedule) {
  d.tag('S');
  feed(d, schedule.partition);
  d.u64(schedule.timing.size());
  for (const TaskTiming& t : schedule.timing) {
    d.i64(t.start);
    d.i64(t.first_out);
    d.i64(t.last_out);
    d.i64(t.s_in.num());
    d.i64(t.s_in.den());
    d.i64(t.s_out.num());
    d.i64(t.s_out.den());
    d.i64(t.pe);
    d.i64(t.block);
  }
  d.u64(schedule.block_start.size());
  for (const std::int64_t v : schedule.block_start) d.i64(v);
  d.u64(schedule.block_end.size());
  for (const std::int64_t v : schedule.block_end) d.i64(v);
  d.i64(schedule.makespan);
}

void feed(Digest& d, const BufferPlan& buffers) {
  d.tag('B');
  d.u64(buffers.channels.size());
  for (const ChannelPlan& c : buffers.channels) {
    d.i64(c.edge);
    d.i64(c.capacity);
    d.i64(c.eq5_requirement);
    d.boolean(c.on_undirected_cycle);
  }
  d.i64(buffers.total_capacity);
}

void feed(Digest& d, const ListSchedule& list) {
  d.tag('L');
  d.u64(list.entries.size());
  for (const ListScheduleEntry& e : list.entries) {
    d.i64(e.start);
    d.i64(e.finish);
    d.i64(e.pe);
  }
  d.i64(list.makespan);
}

void feed(Digest& d, const CsdfAnalysis& csdf) {
  d.tag('C');
  d.i64(csdf.makespan);
  d.i64(csdf.firings);
  d.boolean(csdf.timed_out);
  d.boolean(csdf.deadlocked);
}

void feed(Digest& d, const Placement& placement) {
  d.tag('N');
  d.u64(placement.mesh_pe.size());
  for (const std::int64_t pe : placement.mesh_pe) d.i64(pe);
  d.i64(placement.metrics.weighted_hops);
  d.f64(placement.metrics.mean_hops);
  d.i64(placement.metrics.max_link_load);
  d.i64(placement.metrics.streaming_edges);
}

void feed(Digest& d, const SimResult& sim) {
  d.tag('M');
  d.boolean(sim.deadlocked);
  d.boolean(sim.tick_limit_reached);
  d.i64(sim.makespan);
  d.u64(sim.finish.size());
  for (const std::int64_t v : sim.finish) d.i64(v);
  d.u64(sim.first_out.size());
  for (const std::int64_t v : sim.first_out) d.i64(v);
  d.u64(sim.trace.size());
  for (const SimEvent& e : sim.trace) {
    d.i64(e.tick);
    d.i64(e.node);
    d.boolean(e.kind == SimEvent::Kind::kProduce);
  }
  d.u64(sim.stuck.size());
  for (const NodeId v : sim.stuck) d.i64(v);
  d.i64(sim.ticks_executed);
  d.i64(static_cast<std::int64_t>(sim.engine_used));
  // live_ticks and bulk_jumps are engine-internal effort counters, but they
  // are covered deliberately: a change to the bulk engine's period search
  // that alters WHICH jumps happen shows here even when the timings agree.
  d.i64(sim.live_ticks);
  d.i64(sim.bulk_jumps);
}

}  // namespace

std::uint64_t result_fingerprint(const ScheduleResult& result) {
  Digest d;
  d.text(result.scheduler);
  if (result.streaming) feed(d, *result.streaming);
  if (result.buffers) feed(d, *result.buffers);
  if (result.list) feed(d, *result.list);
  if (result.csdf) feed(d, *result.csdf);
  if (result.placement) feed(d, *result.placement);
  if (result.sim) feed(d, *result.sim);
  d.tag('m');
  d.f64(result.metrics.speedup);
  d.f64(result.metrics.slr);
  d.f64(result.metrics.utilization);
  d.i64(result.metrics.fifo_capacity);
  d.i64(result.makespan);
  return d.finish();
}

}  // namespace sts
