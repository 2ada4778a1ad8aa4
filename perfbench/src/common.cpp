#include "common.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "pipeline/passes.hpp"
#include "pipeline/result_fingerprint.hpp"
#include "support/prng.hpp"
#include "support/workspace.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

namespace {

struct Topology {
  sts::TaskGraph (*make)(std::uint64_t seed);
  std::array<std::int64_t, 4> pe_sweep;
};

const std::array<Topology, 4> kTopologies = {{
    {[](std::uint64_t s) { return sts::make_chain(8, s); }, {2, 4, 6, 8}},
    {[](std::uint64_t s) { return sts::make_fft(32, s); }, {32, 64, 96, 128}},
    {[](std::uint64_t s) { return sts::make_gaussian_elimination(16, s); }, {32, 64, 96, 128}},
    {[](std::uint64_t s) { return sts::make_cholesky(8, s); }, {32, 64, 96, 128}},
}};

}  // namespace

PaperSet::PaperSet(std::uint64_t seed, std::uint64_t salt, int graphs_per_topology) {
  sts::Prng rng(seed * 0x9e3779b97f4a7c15ULL ^ salt);
  for (const Topology& topology : kTopologies) {
    for (int g = 0; g < graphs_per_topology; ++g) {
      graphs.push_back(topology.make(rng()));
      for (const std::int64_t pes : topology.pe_sweep) {
        scenarios.push_back({graphs.size() - 1, pes});
      }
    }
  }
}

sts::MachineConfig PaperSet::machine(std::size_t scenario) const {
  sts::MachineConfig machine;
  machine.num_pes = scenarios[scenario].pes;
  return machine;
}

sts::ScheduleRequest PaperSet::request(std::size_t scenario) const {
  sts::ScheduleRequest request;
  request.graph = graph(scenario);
  request.scheduler = kScheduler;
  request.machine = machine(scenario);
  return request;
}

std::vector<std::size_t> shuffled_sequence(std::size_t unique, int copies, std::uint64_t seed) {
  std::vector<std::size_t> sequence;
  sequence.reserve(unique * static_cast<std::size_t>(copies));
  for (int c = 0; c < copies; ++c) {
    for (std::size_t s = 0; s < unique; ++s) sequence.push_back(s);
  }
  sts::Prng rng(seed ^ 0x5eed5eed5eedULL);
  for (std::size_t i = sequence.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(sequence[i - 1], sequence[j]);
  }
  return sequence;
}

std::vector<Reference> compute_references(
    std::size_t count, int threads, const std::function<sts::TaskGraph(std::size_t)>& graph_of,
    const std::function<sts::MachineConfig(std::size_t)>& machine_of) {
  std::vector<Reference> references(count);
  run_clients(count, threads, [&](std::size_t i, int) {
    const sts::TaskGraph graph = graph_of(i);
    const sts::MachineConfig machine = machine_of(i);
    const Clock::time_point start = Clock::now();
    const sts::ScheduleResult result = sts::schedule_by_name(kScheduler, graph, machine);
    Reference& ref = references[i];
    ref.seconds = seconds_between(start, Clock::now());
    ref.fingerprint = sts::result_fingerprint(result);
    ref.makespan = result.makespan;
    ref.speedup = result.metrics.speedup;
    ref.fifo_capacity = result.metrics.fifo_capacity;
  });
  return references;
}

double speedup_geomean(const std::vector<Reference>& references) {
  double log_sum = 0.0;
  for (const Reference& ref : references) log_sum += std::log(ref.speedup);
  return std::exp(log_sum / static_cast<double>(references.size()));
}

Reply reply_of(std::size_t scenario, const sts::ScheduleResult* result, bool summary_only) {
  Reply reply;
  reply.scenario = scenario;
  reply.summary_only = summary_only;
  if (result == nullptr) return reply;
  reply.ok = true;
  if (!summary_only) reply.fingerprint = sts::result_fingerprint(*result);
  reply.makespan = result->makespan;
  reply.speedup = result->metrics.speedup;
  reply.fifo_capacity = result->metrics.fifo_capacity;
  return reply;
}

void check_replies(const std::vector<Reply>& replies, const std::vector<Reference>& references,
                   Report& report) {
  for (const Reply& reply : replies) {
    const Reference& ref = references.at(reply.scenario);
    bool match = reply.ok;
    if (match && reply.summary_only) {
      match = reply.makespan == ref.makespan && reply.speedup == ref.speedup &&
              reply.fifo_capacity == ref.fifo_capacity;
    } else if (match) {
      match = reply.fingerprint == ref.fingerprint;
    }
    if (!match) {
      ++report.failed;
      report.fail("scenario " + std::to_string(reply.scenario) +
                  (reply.ok ? ": reply differs from the direct schedule" : ": request failed"));
    }
  }
}

void trace_passes(const sts::TaskGraph& graph, const sts::MachineConfig& machine,
                  TraceBuffer* trace) {
  static const sts::PartitionPass partition(sts::PartitionStrategy::kRLX);
  static const sts::StreamingSchedulePass streaming;
  static const sts::BufferSizingPass buffers;
  static const sts::MetricsPass metrics;
  sts::ScheduleContext ctx;
  ctx.graph = &graph;
  ctx.machine = machine;
  ctx.workspace = std::make_shared<sts::Workspace>(machine.intra_threads);
  {
    const ScopedSpan span(trace, "pass.partition");
    partition.run(ctx);
  }
  {
    const ScopedSpan span(trace, "pass.streaming-schedule");
    streaming.run(ctx);
  }
  {
    const ScopedSpan span(trace, "pass.buffer-sizing");
    buffers.run(ctx);
  }
  {
    const ScopedSpan span(trace, "pass.metrics");
    metrics.run(ctx);
  }
}

namespace {

void add_delta(sts::ServiceStats& sum, const sts::ServiceStats& after,
               const sts::ServiceStats& before) {
  sum.submitted += after.submitted - before.submitted;
  sum.completed += after.completed - before.completed;
  sum.failed += after.failed - before.failed;
  sum.fast_path_hits += after.fast_path_hits - before.fast_path_hits;
  sum.cache.hits += after.cache.hits - before.cache.hits;
  sum.cache.misses += after.cache.misses - before.cache.misses;
  sum.cache.races += after.cache.races - before.cache.races;
  sum.cache.evictions += after.cache.evictions - before.cache.evictions;
  sum.subgraph.partition_hits += after.subgraph.partition_hits - before.subgraph.partition_hits;
  sum.subgraph.partition_misses +=
      after.subgraph.partition_misses - before.subgraph.partition_misses;
  sum.subgraph.fragments_assembled +=
      after.subgraph.fragments_assembled - before.subgraph.fragments_assembled;
  sum.subgraph.delta_invalidated +=
      after.subgraph.delta_invalidated - before.subgraph.delta_invalidated;
  sum.canon.hits += after.canon.hits - before.canon.hits;
  sum.canon.misses += after.canon.misses - before.canon.misses;
}

}  // namespace

void RouterCounters::begin(const sts::ShardRouter& router) { before_ = router.stats(); }

void RouterCounters::end(const sts::ShardRouter& router) {
  const sts::ShardRouter::Stats after = router.stats();
  add_delta(sum_, after.total, before_.total);
  backend_submitted_.resize(after.backends.size(), 0);
  for (std::size_t b = 0; b < after.backends.size() && b < before_.backends.size(); ++b) {
    backend_submitted_[b] += after.backends[b].submitted - before_.backends[b].submitted;
  }
  for (const std::size_t depth : after.total.shard_max_depth) {
    max_queue_depth_ = std::max(max_queue_depth_, depth);
  }
}

void RouterCounters::report(Report& report) const {
  const auto set = [&](const char* name, double value) { report.counters[name] = value; };
  set("cache.hits", static_cast<double>(sum_.cache.hits));
  set("cache.misses", static_cast<double>(sum_.cache.misses));
  set("cache.races", static_cast<double>(sum_.cache.races));
  set("cache.evictions", static_cast<double>(sum_.cache.evictions));
  const double lookups =
      static_cast<double>(sum_.cache.hits + sum_.cache.misses + sum_.cache.races);
  set("cache.hit_ratio", lookups > 0 ? static_cast<double>(sum_.cache.hits) / lookups : 0.0);
  set("subgraph.partition_hits", static_cast<double>(sum_.subgraph.partition_hits));
  set("subgraph.partition_misses", static_cast<double>(sum_.subgraph.partition_misses));
  set("subgraph.fragments_assembled", static_cast<double>(sum_.subgraph.fragments_assembled));
  set("subgraph.delta_invalidated", static_cast<double>(sum_.subgraph.delta_invalidated));
  set("canon.hits", static_cast<double>(sum_.canon.hits));
  set("canon.misses", static_cast<double>(sum_.canon.misses));
  set("service.fast_path_hits", static_cast<double>(sum_.fast_path_hits));
  set("service.max_queue_depth", static_cast<double>(max_queue_depth_));
  std::uint64_t total = 0;
  std::uint64_t most = 0;
  for (const std::uint64_t n : backend_submitted_) {
    total += n;
    most = std::max(most, n);
  }
  set("router.backend_share_max",
      total > 0 ? static_cast<double>(most) / static_cast<double>(total) : 0.0);
}

std::size_t rounds_for(double seconds, double round_seconds) {
  return std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(seconds / round_seconds)));
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "paper_router") return make_paper_serving(options, false);
  if (options.workload == "paper_fleet") return make_paper_serving(options, true);
  if (options.workload == "huge_delta") return make_huge_delta(options);
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "' (paper_router, paper_fleet, huge_delta)");
}

}  // namespace perfbench
