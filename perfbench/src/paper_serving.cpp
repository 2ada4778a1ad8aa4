// paper_router and paper_fleet: one seeded sequence over the paper
// topologies, served by a 4 x 1-worker ShardRouter either in-process or
// through four sts-serve children reached over HTTP. Every round draws fresh
// graphs for the same sequence of scenario indices, so a run samples many
// graphs and its figures depend less on the seed.

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/http.hpp"
#include "net/remote_backend.hpp"
#include "net/server_process.hpp"
#include "net/socket.hpp"
#include "pipeline/subgraph_cache.hpp"
#include "service/schedule_service.hpp"
#include "sim/dataflow_sim.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBackends = 4;
constexpr int kGraphsPerTopology = 128;  // x 4 topologies x 4 PE counts = 2048 scenarios
constexpr int kCopies = 4;               // each scenario 4 times: ~75% cache hits
constexpr int kWarmGraphsPerTopology = 4;
constexpr std::uint64_t kSetSalt = 0x7a11;  // round r draws with salt kSetSalt + r

/// Per-client accumulators of trace-only counters (no sharing, no locks).
struct ClientTally {
  double body_bytes = 0.0;
  std::size_t bodies = 0;
  double hit_seconds = 0.0;
  std::size_t hits = 0;
  std::vector<std::pair<std::size_t, double>> miss_settles;  ///< (scenario, seconds)
  double sim_live_ticks = 0.0;
  double sim_bulk_jumps = 0.0;
  std::size_t simulations = 0;
  std::size_t sim_failures = 0;  ///< deadlocked or hit the tick limit
};

/// References of the scenarios of `rounds` rounds, where round r drew
/// PaperSet(seed, kSetSalt + r, kGraphsPerTopology); round r's scenario s is
/// entry r * (scenarios per round) + s.
std::vector<Reference> round_references(std::uint64_t seed, std::size_t rounds) {
  std::vector<Reference> references;
  for (std::size_t r = 0; r < rounds; ++r) {
    const PaperSet set(seed, kSetSalt + r, kGraphsPerTopology);
    const std::vector<Reference> round = compute_references(
        set.scenarios.size(), 4, [&set](std::size_t s) { return set.graph(s); },
        [&set](std::size_t s) { return set.machine(s); });
    references.insert(references.end(), round.begin(), round.end());
  }
  return references;
}

/// One raw keep-alive `GET /healthz` round trip; false on any transport fault.
bool healthz_round_trip(int fd) {
  static const std::string wire = sts::render_http_request("GET", "/healthz", {});
  if (!sts::send_all(fd, wire)) return false;
  const sts::HttpLimits limits;
  std::string buffer;
  for (;;) {
    const sts::HttpResponseParse parsed = sts::parse_http_response(buffer, limits);
    if (parsed.status == sts::HttpParseStatus::kComplete) return parsed.response.status == 200;
    if (parsed.status == sts::HttpParseStatus::kError) return false;
    if (sts::recv_some(fd, buffer, 64 * 1024) <= 0) return false;
  }
}

class PaperServing final : public Workload {
 public:
  PaperServing(const Options& options, bool fleet)
      : options_(options),
        fleet_(fleet),
        set_(std::in_place, options.seed, kSetSalt, kGraphsPerTopology),
        warm_set_(options.seed, 0x3a83, kWarmGraphsPerTopology),
        sequence_(shuffled_sequence(set_->scenarios.size(), kCopies, options.seed)),
        warm_sequence_(shuffled_sequence(warm_set_.scenarios.size(), kCopies, options.seed + 1)),
        first_(sequence_.size()),
        tallies_(2),
        healthz_conns_(2) {
    std::vector<bool> seen(set_->scenarios.size(), false);
    for (std::size_t i = 0; i < sequence_.size(); ++i) {
      first_[i] = !seen[sequence_[i]];
      seen[sequence_[i]] = true;
    }
  }

  [[nodiscard]] int clients() const override { return 2; }
  [[nodiscard]] std::size_t rounds(double seconds) const override {
    return rounds_for(seconds, fleet_ ? 2.0 : 0.75);
  }
  [[nodiscard]] std::size_t requests_per_round() const override { return sequence_.size(); }
  [[nodiscard]] std::size_t warmup_requests() const override { return warm_sequence_.size(); }

  void setup() override {
    sts::RouterConfig config;
    config.num_backends = kBackends;
    config.backend.num_workers = 1;
    if (fleet_) {
      const std::string serve = sts::default_sts_serve_binary();
      for (std::size_t b = 0; b < kBackends; ++b) {
        servers_.push_back(std::make_unique<sts::ServerProcess>(
            serve, std::vector<std::string>{"--port", "0", "--threads", "1"}));
      }
      config.backend_factory = [this](std::size_t index) -> std::shared_ptr<sts::ScheduleBackend> {
        sts::RemoteConfig remote;
        remote.port = servers_.at(index)->port();
        remote.connections = 1;
        return std::make_shared<sts::RemoteBackend>(remote);
      };
    }
    router_ = std::make_unique<sts::ShardRouter>(std::move(config));
    results_.assign(sequence_.size(), nullptr);
    summaries_.assign(sequence_.size(), Reply{});
  }

  void prepare_trace() override {
    if (!fleet_) standalone_ = std::make_unique<sts::SubgraphCache>();
  }

  void warm(std::size_t index) override {
    const sts::ScheduleResponse response =
        router_->schedule(warm_set_.request(warm_sequence_[index]));
    if (!response.ok()) throw std::runtime_error("warm-up request failed: " + response.error);
  }

  void begin_timed() override { counters_.begin(*router_); }

  double request(std::size_t index, int client, TraceBuffer* trace) override {
    const std::size_t scenario = sequence_[index];
    const std::size_t global = round_ * set_->scenarios.size() + scenario;
    sts::ScheduleRequest request = set_->request(scenario);
    // A fleet reply never arrives synchronously, so there a request counts
    // as a hit unless it is its scenario's first occurrence in the round;
    // in-process, a hit is a future already settled when submit returns.
    bool hit = !first_[index];

    const Clock::time_point start = Clock::now();
    sts::ServiceAdmission admission;
    {
      const ScopedSpan span(trace, "service.submit");
      admission = router_->submit(std::move(request));
    }
    if (!fleet_) {
      hit = admission.accepted() &&
            admission.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    }
    const Clock::time_point settle_start = Clock::now();
    sts::ScheduleResponse response;
    {
      const ScopedSpan span(trace, hit ? "service.settle_hit" : "service.settle_miss");
      response = admission.wait();
    }
    const Clock::time_point end = Clock::now();

    if (fleet_) {
      summaries_[index] = reply_of(global, response.ok() ? response.result.get() : nullptr, true);
    } else {
      results_[index] = response.ok() ? response.result : nullptr;
    }
    if (trace != nullptr) {
      ClientTally& tally = tallies_[static_cast<std::size_t>(client)];
      if (hit) {
        tally.hit_seconds += seconds_between(start, end);
        ++tally.hits;
      } else {
        tally.miss_settles.emplace_back(global, seconds_between(settle_start, end));
      }
      decompose(scenario, hit, response, client, trace);
    }
    return seconds_between(start, end);
  }

  void end_timed(bool count) override {
    if (count) counters_.end(*router_);
  }

  void end_round(Report& report) override {
    for (std::size_t i = 0; i < sequence_.size(); ++i) {
      replies_.push_back(
          fleet_ ? summaries_[i]
                 : reply_of(round_ * set_->scenarios.size() + sequence_[i], results_[i].get(),
                            false));
    }
    results_.clear();
    for (std::vector<sts::FdHandle>& conns : healthz_conns_) conns.clear();
    router_.reset();
    standalone_.reset();
    if (fleet_) {
      double children = 0.0;
      for (const auto& server : servers_) children += peak_rss_mb(std::to_string(server->pid()));
      report.child_peak_rss_mb = std::max(report.child_peak_rss_mb, children);
      for (const auto& server : servers_) {
        if (server->terminate() != 0) report.fail("sts-serve child exited non-zero after drain");
      }
      servers_.clear();
    }
    ++round_;
    set_.emplace(options_.seed, kSetSalt + round_, kGraphsPerTopology);
  }

  void finish(Report& report) override {
    const std::vector<Reference> references =
        round_references(options_.seed, round_);
    check_replies(replies_, references, report);
    report.speedup_geomean = speedup_geomean(references);
    if (!options_.trace) return;
    counters_.report(report);
    ClientTally total;
    double queue_wait = 0.0;
    for (const ClientTally& tally : tallies_) {
      total.body_bytes += tally.body_bytes;
      total.bodies += tally.bodies;
      total.hit_seconds += tally.hit_seconds;
      total.hits += tally.hits;
      total.sim_live_ticks += tally.sim_live_ticks;
      total.sim_bulk_jumps += tally.sim_bulk_jumps;
      total.simulations += tally.simulations;
      total.sim_failures += tally.sim_failures;
      for (const auto& [scenario, settle] : tally.miss_settles) {
        queue_wait += settle - references[scenario].seconds;
        total.miss_settles.emplace_back(scenario, settle);
      }
    }
    const auto mean = [](double sum, std::size_t n) { return n > 0 ? sum / n : 0.0; };
    report.counters["service.queue_wait_us"] = 1e6 * mean(queue_wait, total.miss_settles.size());
    report.counters["request.body_kb"] = mean(total.body_bytes, total.bodies) / 1024.0;
    report.counters["net.remote_hit_us"] = fleet_ ? 1e6 * mean(total.hit_seconds, total.hits) : 0.0;
    report.counters["sim.live_ticks"] = mean(total.sim_live_ticks, total.simulations);
    report.counters["sim.bulk_jumps"] = mean(total.sim_bulk_jumps, total.simulations);
    if (total.sim_failures > 0) {
      report.fail(std::to_string(total.sim_failures) +
                  " traced schedules deadlocked or hit the tick limit in simulation");
    }
  }

 private:
  /// Re-invokes each layer's public functions on this request's inputs.
  void decompose(std::size_t scenario, bool hit, const sts::ScheduleResponse& response, int client,
                 TraceBuffer* trace) {
    ClientTally& tally = tallies_[static_cast<std::size_t>(client)];
    sts::ScheduleRequest copy = set_->request(scenario);
    {
      const ScopedSpan span(trace, "request.key");
      (void)copy.key();
    }
    std::size_t backend = 0;
    {
      const ScopedSpan span(trace, "router.route");
      backend = router_->backend_for(copy);
    }
    if (fleet_) {
      std::string body;
      {
        const ScopedSpan span(trace, "request.to_json");
        body = copy.to_json();
      }
      tally.body_bytes += static_cast<double>(body.size());
      ++tally.bodies;
      {
        const ScopedSpan span(trace, "request.from_json");
        (void)sts::ScheduleRequest::from_json(body);
      }
      std::string reply;
      {
        const ScopedSpan span(trace, "response.to_json");
        reply = response.to_json();
      }
      {
        const ScopedSpan span(trace, "response.from_json");
        (void)sts::ScheduleResponse::from_json(reply);
      }
      std::vector<sts::FdHandle>& conns = healthz_conns_[static_cast<std::size_t>(client)];
      conns.resize(kBackends);
      if (!conns[backend].valid()) {
        conns[backend] = sts::connect_tcp("127.0.0.1", servers_[backend]->port());
      }
      bool healthy = false;
      {
        const ScopedSpan span(trace, "net.healthz_rtt");
        healthy = healthz_round_trip(conns[backend].get());
      }
      if (!healthy) throw std::runtime_error("healthz round trip failed");
    }
    if (hit) return;
    const sts::TaskGraph& graph = set_->graph(scenario);
    const sts::MachineConfig machine = set_->machine(scenario);
    sts::ScheduleResult result;
    {
      const ScopedSpan span(trace, "pipeline.schedule");
      result = sts::schedule_by_name(kScheduler, graph, machine);
    }
    trace_passes(graph, machine, trace);
    // Validation by simulation (Appendix B) of the schedule the miss produced.
    sts::SimOptions options;
    options.engine = sts::SimEngine::kBulkAdvance;
    sts::SimResult sim;
    {
      const ScopedSpan span(trace, "sim.simulate");
      sim = sts::simulate_streaming(graph, *result.streaming, *result.buffers, options);
    }
    tally.sim_live_ticks += static_cast<double>(sim.live_ticks);
    tally.sim_bulk_jumps += static_cast<double>(sim.bulk_jumps);
    ++tally.simulations;
    if (sim.deadlocked || sim.tick_limit_reached) ++tally.sim_failures;
    if (standalone_) {
      const ScopedSpan span(trace, "subgraph.schedule");
      (void)sts::schedule_with_subgraph_cache(kScheduler, graph, machine, *standalone_);
    }
  }

  const Options options_;
  bool fleet_;
  std::size_t round_ = 0;
  std::optional<PaperSet> set_;  ///< the current round's graphs
  PaperSet warm_set_;
  std::vector<std::size_t> sequence_;
  std::vector<std::size_t> warm_sequence_;
  std::vector<bool> first_;  ///< first occurrence of its scenario in the round

  std::vector<std::unique_ptr<sts::ServerProcess>> servers_;
  std::unique_ptr<sts::ShardRouter> router_;
  std::unique_ptr<sts::SubgraphCache> standalone_;  ///< trace rounds, in-process
  RouterCounters counters_;

  std::vector<std::shared_ptr<const sts::ScheduleResult>> results_;
  std::vector<Reply> summaries_;
  std::vector<Reply> replies_;
  std::vector<ClientTally> tallies_;
  std::vector<std::vector<sts::FdHandle>> healthz_conns_;  ///< per client, per backend
};

}  // namespace

std::unique_ptr<Workload> make_paper_serving(const Options& options, bool fleet) {
  return std::make_unique<PaperServing>(options, fleet);
}

}  // namespace perfbench
