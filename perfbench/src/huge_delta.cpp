// huge_delta: four ~10^5-node bases submitted whole at set-up, then a timed
// sequence of depth-1 deltas (one set_output retune each, fresh factor) and
// whole-graph re-submissions, through the in-process 4 x 1-worker router.

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "graph/graph_edit.hpp"
#include "graph/serialization.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "support/prng.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBases = 4;
constexpr int kComponents = 100;  // x 25 layers x 40 wide = 10^5 nodes per base
constexpr int kLayers = 25;
constexpr int kWidth = 40;
constexpr int kFanIn = 3;
constexpr std::int64_t kPes = 64;
constexpr std::size_t kRequestsPerRound = 32;  // 3 of every 4 a delta

/// One layered component, `layers` x `width`, each node fed by `fan_in`
/// random nodes of the previous layer (the incremental bench's generator).
sts::TaskGraph make_component(std::uint64_t seed) {
  sts::Prng rng(seed ^ 0x5851f42d4c957f2dULL);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (int layer = 1; layer < kLayers; ++layer) {
    const std::int32_t previous = (layer - 1) * kWidth;
    for (std::int32_t v = layer * kWidth; v < (layer + 1) * kWidth; ++v) {
      for (int k = 0; k < kFanIn; ++k) {
        edges.emplace_back(previous + static_cast<std::int32_t>(rng.uniform_int(0, kWidth - 1)),
                           v);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return sts::canonical_from_topology(kLayers * kWidth, edges, seed);
}

/// Appends `part` to `graph` as a disjoint component, keeping kinds, declared
/// outputs, volumes, and edge order.
void append_component(sts::TaskGraph& graph, const sts::TaskGraph& part) {
  const auto offset = static_cast<sts::NodeId>(graph.node_count());
  for (sts::NodeId v = 0; static_cast<std::size_t>(v) < part.node_count(); ++v) {
    const std::int64_t output = part.declared_output(v);
    switch (part.kind(v)) {
      case sts::NodeKind::kSource:
        (void)graph.add_source(output);
        break;
      case sts::NodeKind::kCompute: {
        const sts::NodeId added = graph.add_compute();
        if (output > 0) graph.declare_output(added, output);
        break;
      }
      case sts::NodeKind::kBuffer: {
        const sts::NodeId added = graph.add_buffer();
        if (output > 0) graph.declare_output(added, output);
        break;
      }
      case sts::NodeKind::kSink:
        (void)graph.add_sink();
        break;
    }
  }
  for (const sts::Edge& edge : part.edges()) {
    (void)graph.add_edge(offset + edge.src, offset + edge.dst, edge.volume);
  }
}

/// One timed request: a delta against a base, or a re-submission of it.
struct Slot {
  bool delta = false;
  std::size_t base = 0;
  std::size_t scenario = 0;  ///< 0..3 the bases, then one per delta
  sts::GraphEdit edit;
};

class HugeDelta final : public Workload {
 public:
  explicit HugeDelta(const Options& options) : options_(options) {
    sts::Prng rng(options.seed * 0x9e3779b97f4a7c15ULL ^ 0x4a6e);
    // One base per backend, whatever the seed: the four cold set-up
    // schedules run in parallel and every backend carries the same load. A
    // base that routes to an occupied backend has its last component
    // redrawn. A throwaway router has the same ring as every deployment.
    const sts::ShardRouter routing(router_config());
    std::vector<bool> taken(kBases, false);
    for (std::size_t b = 0; b < kBases; ++b) {
      std::vector<sts::TaskGraph> parts;
      for (int c = 0; c < kComponents; ++c) parts.push_back(make_component(rng()));
      for (;;) {
        sts::TaskGraph base;
        for (const sts::TaskGraph& part : parts) append_component(base, part);
        bases_.push_back(std::move(base));
        const std::size_t backend = routing.backend_for(whole_request(b));
        if (!taken[backend]) {
          taken[backend] = true;
          break;
        }
        bases_.pop_back();
        parts.back() = make_component(rng());
      }
      const sts::TaskGraph& base = bases_[b];
      std::vector<sts::NodeId> exits;
      for (sts::NodeId v = 0; static_cast<std::size_t>(v) < base.node_count(); ++v) {
        if (base.kind(v) == sts::NodeKind::kCompute && base.out_degree(v) == 0 &&
            base.declared_output(v) > 0) {
          exits.push_back(v);
        }
      }
      exits_.push_back(std::move(exits));
      digests_.push_back(whole_request(b).key_digest());
    }
    const auto make_slot = [&](std::size_t base, bool delta, std::int64_t factor) {
      Slot slot;
      slot.delta = delta;
      slot.base = base;
      slot.scenario = base;
      if (delta) {
        const std::vector<sts::NodeId>& exits = exits_[base];
        const sts::NodeId node = exits[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(exits.size()) - 1))];
        slot.edit = sts::GraphEdit{sts::GraphEdit::Op::kSetOutput, sts::NodeKind::kCompute, node,
                                   -1, -1, bases_[base].declared_output(node) * factor, ""};
      }
      return slot;
    };
    // Every base gets the same share: 6 deltas and 2 re-submissions a round,
    // in a seeded order where every fourth request is a re-submission. Fresh
    // factors (timed deltas 2, 3, ...; warm-up deltas a disjoint range) make
    // every delta invalidate exactly one partition.
    const std::size_t per_base = kRequestsPerRound / kBases;
    const std::vector<std::size_t> delta_bases =
        shuffled_sequence(kBases, static_cast<int>(per_base * 3 / 4), rng());
    const std::vector<std::size_t> whole_bases =
        shuffled_sequence(kBases, static_cast<int>(per_base / 4), rng());
    std::int64_t factor = 2;
    for (std::size_t i = 0; i < kRequestsPerRound; ++i) {
      if (i % 4 == 3) {
        sequence_.push_back(make_slot(whole_bases[i / 4], false, 0));
        continue;
      }
      Slot slot = make_slot(delta_bases[delta_slots_.size()], true, factor++);
      slot.scenario = kBases + delta_slots_.size();
      delta_slots_.push_back(i);
      sequence_.push_back(std::move(slot));
    }
    for (std::size_t b = 0; b < kBases; ++b) {
      warm_sequence_.push_back(make_slot(b, true, 1000 + static_cast<std::int64_t>(b)));
    }
    prepare_base_requests();
  }

  [[nodiscard]] int clients() const override { return 2; }
  [[nodiscard]] std::size_t rounds(double seconds) const override {
    return rounds_for(seconds, 1.0);
  }
  [[nodiscard]] std::size_t requests_per_round() const override { return sequence_.size(); }
  [[nodiscard]] std::size_t warmup_requests() const override { return warm_sequence_.size(); }

  void setup() override {
    router_ = std::make_unique<sts::ShardRouter>(router_config());
    std::vector<sts::ServiceAdmission> admissions;
    for (sts::ScheduleRequest& request : pending_bases_) {
      admissions.push_back(router_->submit(std::move(request)));
    }
    pending_bases_.clear();
    for (std::size_t b = 0; b < kBases; ++b) {
      const sts::ScheduleResponse response = admissions[b].wait();
      base_replies_.push_back(reply_of(b, response.ok() ? response.result.get() : nullptr, false));
    }
    results_.assign(sequence_.size(), nullptr);
  }

  void prepare_trace() override {
    // Standalone layer instances warmed the way the service was: with the
    // bases' partitions.
    memo_ = std::make_unique<sts::PartitionCanonMemo>();
    standalone_ = std::make_unique<sts::SubgraphCache>();
    for (const sts::TaskGraph& base : bases_) {
      (void)sts::canonical_partition_index(base, memo_.get());
      (void)sts::schedule_with_subgraph_cache(kScheduler, base, machine(), *standalone_);
    }
  }

  void warm(std::size_t index) override {
    const sts::ScheduleResponse response = router_->schedule(delta_request(warm_sequence_[index]));
    if (!response.ok()) throw std::runtime_error("warm-up delta failed: " + response.error);
  }

  void begin_timed() override { counters_.begin(*router_); }

  double request(std::size_t index, int client, TraceBuffer* trace) override {
    (void)client;
    const Slot& slot = sequence_[index];
    // Request construction (a 10^5-node graph copy for a re-submission) is
    // the caller's work before the request is issued, outside the latency.
    sts::ScheduleRequest request = slot.delta ? delta_request(slot) : whole_request(slot.base);
    sts::ScheduleRequest routed;
    if (trace != nullptr && slot.delta) routed = request;

    const Clock::time_point start = Clock::now();
    sts::ServiceAdmission admission;
    {
      const ScopedSpan span(trace, "service.submit");
      admission = router_->submit(std::move(request));
    }
    const bool hit = admission.accepted() && admission.future.wait_for(std::chrono::seconds(0)) ==
                                                 std::future_status::ready;
    sts::ScheduleResponse response;
    {
      const ScopedSpan span(trace, hit ? "service.settle_hit" : "service.settle_miss");
      response = admission.wait();
    }
    const double latency = seconds_between(start, Clock::now());
    results_[index] = response.ok() ? response.result : nullptr;
    if (trace != nullptr) decompose(slot, routed, trace);
    return latency;
  }

  void end_timed(bool count) override {
    if (count) counters_.end(*router_);
  }

  void end_round(Report& report) override {
    (void)report;
    for (std::size_t i = 0; i < sequence_.size(); ++i) {
      replies_.push_back(reply_of(sequence_[i].scenario, results_[i].get(), false));
    }
    results_.clear();
    router_.reset();
    standalone_.reset();
    memo_.reset();
    prepare_base_requests();
  }

  void finish(Report& report) override {
    const std::vector<Reference> references = compute_references(
        kBases + delta_slots_.size(), 4,
        [this](std::size_t s) {
          if (s < kBases) return bases_[s];
          const Slot& slot = sequence_[delta_slots_[s - kBases]];
          return sts::apply_graph_edits(bases_[slot.base], std::span(&slot.edit, 1));
        },
        [](std::size_t) { return machine(); });
    check_replies(base_replies_, references, report);
    check_replies(replies_, references, report);
    report.speedup_geomean = speedup_geomean(references);
    if (options_.trace) counters_.report(report);
  }

 private:
  static sts::RouterConfig router_config() {
    sts::RouterConfig config;
    config.num_backends = kBases;
    config.backend.num_workers = 1;
    return config;
  }

  static sts::MachineConfig machine() {
    sts::MachineConfig machine;
    machine.num_pes = kPes;
    return machine;
  }

  [[nodiscard]] sts::ScheduleRequest whole_request(std::size_t base) const {
    sts::ScheduleRequest request;
    request.graph = bases_[base];
    request.scheduler = kScheduler;
    request.machine = machine();
    return request;
  }

  [[nodiscard]] sts::ScheduleRequest delta_request(const Slot& slot) const {
    sts::ScheduleRequest request;
    request.base_key = digests_[slot.base];
    request.edits = {slot.edit};
    request.scheduler = kScheduler;
    request.machine = machine();
    return request;
  }

  /// The next round's base submissions, built outside the set-up timer.
  void prepare_base_requests() {
    pending_bases_.clear();
    for (std::size_t b = 0; b < kBases; ++b) pending_bases_.push_back(whole_request(b));
  }

  /// Re-invokes each layer's public functions on this request's inputs.
  void decompose(const Slot& slot, const sts::ScheduleRequest& routed, TraceBuffer* trace) {
    if (!slot.delta) {
      sts::ScheduleRequest copy = whole_request(slot.base);
      {
        const ScopedSpan span(trace, "request.key");
        (void)copy.key();
      }
      const ScopedSpan span(trace, "router.route");
      (void)router_->backend_for(copy);
      return;
    }
    {
      const ScopedSpan span(trace, "router.route");
      (void)router_->backend_for(routed);
    }
    sts::ScheduleRequest whole;
    whole.scheduler = kScheduler;
    whole.machine = machine();
    {
      const ScopedSpan span(trace, "graph.apply_edits");
      whole.graph = sts::apply_graph_edits(bases_[slot.base], std::span(&slot.edit, 1));
    }
    {
      const ScopedSpan span(trace, "graph.validate");
      (void)whole.graph.validate();
    }
    {
      const ScopedSpan span(trace, "request.key");
      (void)whole.key();
    }
    sts::CanonicalPartitionIndex index;
    {
      const ScopedSpan span(trace, "graph.partition_index");
      index = sts::canonical_partition_index(whole.graph, memo_.get());
    }
    {
      const ScopedSpan span(trace, "subgraph.schedule");
      (void)sts::schedule_with_subgraph_cache(kScheduler, whole.graph, machine(), *standalone_,
                                              true);
    }
    // The core passes only ever see the one partition the edit touched.
    const sts::TaskGraph partition = sts::materialize_partition(
        whole.graph, index, index.component[static_cast<std::size_t>(slot.edit.node)]);
    {
      const ScopedSpan span(trace, "pipeline.schedule");
      (void)sts::schedule_by_name(kScheduler, partition, machine());
    }
    trace_passes(partition, machine(), trace);
  }

  Options options_;
  std::vector<sts::TaskGraph> bases_;
  std::vector<std::vector<sts::NodeId>> exits_;
  std::vector<std::string> digests_;
  std::vector<Slot> sequence_;
  std::vector<std::size_t> delta_slots_;  ///< sequence index of each delta scenario
  std::vector<Slot> warm_sequence_;
  std::vector<sts::ScheduleRequest> pending_bases_;

  std::unique_ptr<sts::ShardRouter> router_;
  std::unique_ptr<sts::PartitionCanonMemo> memo_;     ///< trace rounds
  std::unique_ptr<sts::SubgraphCache> standalone_;  ///< trace rounds
  RouterCounters counters_;

  std::vector<std::shared_ptr<const sts::ScheduleResult>> results_;
  std::vector<Reply> base_replies_;
  std::vector<Reply> replies_;
};

}  // namespace

std::unique_ptr<Workload> make_huge_delta(const Options& options) {
  return std::make_unique<HugeDelta>(options);
}

}  // namespace perfbench
