// Cross-process serving bench + acceptance gates for the net layer
// (StsServer / RemoteBackend / ServerProcess) on paper_topologies sweeps:
//
//   1. local:   ShardRouter over 4 in-process single-worker services — the
//      in-process baseline the wire must keep up with.
//   2. remote:  the same router over 4 spawned sts-serve processes reached
//      through RemoteBackend (fork/exec + HTTP/1.1 over loopback); gate:
//      remote QPS >= STS_NET_RATIO_MIN (default 0.8) of local QPS, enforced
//      when the host has >= 4 hardware threads (smaller hosts report the
//      ratio without gating — the correctness gates below still must pass).
//   3. drain:   a server drained mid-flight while a RemoteBackend hammers it
//      over real sockets; gate: zero lost in-flight requests — every future
//      settles, the server answers exactly what it accepts
//      (requests == responses), and the backend balances
//      submitted == completed + rejected across the socket boundary.
//   4. sigterm: a spawned sts-serve child SIGTERMed mid-flight; gate: the
//      child drains and exits 0 and every client future settles.
//
// STS_BENCH_GRAPHS overrides seeds per configuration (CI smoke uses 2);
// STS_NET_ROUNDS repeats the sweep submissions per phase (the CI soak job
// uses it to stretch phases into a sustained hammer).

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_common.hpp"
#include "net/remote_backend.hpp"
#include "net/server_process.hpp"
#include "net/sts_server.hpp"
#include "service/request.hpp"
#include "service/schedule_service.hpp"
#include "service/shard_router.hpp"
#include "support/table.hpp"

namespace {

struct Scenario {
  std::string label;
  sts::TaskGraph graph;
  std::int64_t pes;
};

std::vector<Scenario> build_scenarios(int seeds_per_config) {
  std::vector<Scenario> scenarios;
  for (const sts::bench::Topology& topo : sts::bench::paper_topologies()) {
    for (int seed = 0; seed < seeds_per_config; ++seed) {
      const sts::TaskGraph graph = topo.make(static_cast<std::uint64_t>(seed) + 1);
      for (const std::int64_t pes : topo.pe_sweep) {
        scenarios.push_back({topo.name + "/" + std::to_string(pes) + "/" + std::to_string(seed),
                             graph, pes});
      }
    }
  }
  return scenarios;
}

sts::ScheduleRequest make_request(const Scenario& s) {
  sts::ScheduleRequest request;
  request.graph = s.graph;
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = s.pes;
  request.label = s.label;
  return request;
}

int rounds() {
  if (const char* env = std::getenv("STS_NET_ROUNDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

/// Submits every scenario `copies` times and waits on every future; wall
/// time covers submission through completion.
double run_sweep(sts::ShardRouter& router, const std::vector<Scenario>& scenarios, int copies) {
  const sts::bench::Stopwatch clock;
  std::vector<sts::ServiceFuture> futures;
  futures.reserve(scenarios.size() * static_cast<std::size_t>(copies));
  for (int copy = 0; copy < copies; ++copy) {
    for (const Scenario& s : scenarios) {
      futures.push_back(router.submit(make_request(s)).future);
    }
  }
  for (auto& f : futures) {
    if (f.get()->makespan <= 0) throw std::runtime_error("scenario produced empty schedule");
  }
  return clock.seconds();
}

}  // namespace

int main() {
  using namespace sts;
  using namespace sts::bench;

  const int seeds = graphs_per_config();
  const int copies = rounds();
  const std::vector<Scenario> scenarios = build_scenarios(seeds);
  const std::size_t jobs = scenarios.size() * static_cast<std::size_t>(copies);
  const unsigned cores = std::thread::hardware_concurrency();

  const std::string binary = default_sts_serve_binary();
  if (::access(binary.c_str(), X_OK) != 0) {
    std::cerr << "error: sts_serve binary not found at " << binary
              << " (build it, or point STS_SERVE_BIN at it)\n";
    return 1;
  }

  std::cout << "Net throughput: " << scenarios.size() << " unique scenarios x " << copies
            << " rounds, scheduler = streaming-rlx, " << cores << " hardware threads\n"
            << "sts-serve: " << binary << "\n\n";

  BenchReport report("net_throughput");
  report.add("scenarios", static_cast<std::int64_t>(scenarios.size()));
  report.add("rounds", copies);
  report.add("hardware_threads", static_cast<std::int64_t>(cores));

  // 1. In-process baseline: router over 4 single-worker services.
  RouterConfig local_config;
  local_config.num_backends = 4;
  local_config.backend.num_workers = 1;
  double t_local = 0.0;
  {
    ShardRouter router(local_config);
    t_local = run_sweep(router, scenarios, copies);
  }

  // 2. The same fleet as real processes: 4 sts-serve children, reached
  // through RemoteBackend — identical router, identical envelopes, plus a
  // fork, a serialization, and a loopback round trip per job.
  double t_remote = 0.0;
  {
    std::vector<std::unique_ptr<ServerProcess>> servers;
    for (int i = 0; i < 4; ++i) {
      servers.push_back(std::make_unique<ServerProcess>(
          binary, std::vector<std::string>{"--port", "0", "--threads", "1"}));
    }
    RouterConfig remote_config;
    remote_config.num_backends = 4;
    remote_config.backend_factory =
        [&servers](std::size_t index) -> std::shared_ptr<ScheduleBackend> {
      RemoteConfig remote;
      remote.port = servers.at(index)->port();
      return std::make_shared<RemoteBackend>(remote);
    };
    {
      ShardRouter router(remote_config);
      t_remote = run_sweep(router, scenarios, copies);
    }
    for (auto& server : servers) {
      if (server->terminate() != 0) {
        std::cerr << "error: sts-serve backend exited non-zero after drain\n";
        return 1;
      }
    }
  }
  const double qps_local = jobs / t_local;
  const double qps_remote = jobs / t_remote;
  const double ratio = qps_remote / qps_local;

  // 3. Drain gate over real sockets: hammer a server through RemoteBackend
  // and drain it mid-flight. Zero lost in-flight: every client future
  // settles, the server answers exactly what it accepted, and the service's
  // ledger balances across the process boundary.
  std::size_t drain_ok_count = 0;
  std::size_t drain_err_count = 0;
  bool drain_ok = false;
  std::uint64_t drain_requests = 0;
  std::uint64_t drain_responses = 0;
  {
    auto service = std::make_shared<ScheduleService>(ServiceConfig{});
    StsServer server(service);
    RemoteConfig remote_config;
    remote_config.port = server.port();
    remote_config.connections = 4;
    RemoteBackend remote(remote_config);

    std::vector<ServiceFuture> futures;
    for (const Scenario& s : scenarios) {
      futures.push_back(remote.submit(make_request(s)).future);
    }
    server.drain();  // races the in-flight stream on purpose
    for (ServiceFuture& future : futures) {
      const ScheduleResponse settled = future.response();
      if (settled.result != nullptr) {
        ++drain_ok_count;
      } else {
        ++drain_err_count;
        if (settled.error.empty() && !settled.rejected.has_value()) {
          std::cerr << "error: future settled with neither result nor error\n";
          return 1;
        }
      }
    }
    const StsServer::Stats net = server.stats();
    const ServiceStats stats = service->stats();
    drain_requests = net.requests;
    drain_responses = net.responses;
    drain_ok = drain_ok_count + drain_err_count == scenarios.size() &&
               net.requests == net.responses &&
               stats.submitted == stats.completed + stats.rejected;
  }

  // 4. SIGTERM a real child mid-flight: the drain sequence must answer what
  // it accepted and exit 0; the client must see every future settle.
  bool sigterm_ok = false;
  int sigterm_exit = -1;
  {
    ServerProcess child(binary, {"--port", "0", "--threads", "1"});
    RemoteConfig remote_config;
    remote_config.port = child.port();
    remote_config.connections = 2;
    RemoteBackend remote(remote_config);

    std::vector<ServiceFuture> futures;
    for (const Scenario& s : scenarios) {
      futures.push_back(remote.submit(make_request(s)).future);
    }
    sigterm_exit = child.terminate();  // SIGTERM races the stream
    std::size_t settled_count = 0;
    for (ServiceFuture& future : futures) {
      const ScheduleResponse settled = future.response();
      if (settled.result != nullptr || !settled.error.empty() || settled.rejected.has_value()) {
        ++settled_count;
      }
    }
    sigterm_ok = sigterm_exit == 0 && settled_count == scenarios.size();
  }

  Table table({"phase", "backends", "jobs", "seconds", "jobs/s"});
  table.add_row({"local router 4x1", "4", std::to_string(jobs), fmt(t_local, 3),
                 fmt(qps_local, 0)});
  table.add_row({"remote 4 x sts-serve", "4", std::to_string(jobs), fmt(t_remote, 3),
                 fmt(qps_remote, 0)});
  table.print(std::cout);

  double ratio_min = 0.8;
  if (const char* env = std::getenv("STS_NET_RATIO_MIN")) {
    const double v = std::atof(env);
    if (v > 0) ratio_min = v;
  }
  const bool enforce_ratio = cores >= 4;
  const bool ratio_ok = ratio >= ratio_min;

  std::cout << "\nremote/local QPS ratio: " << fmt(ratio, 2) << " (floor " << fmt(ratio_min, 2)
            << (enforce_ratio ? ", enforced" : ", reported only: < 4 hardware threads")
            << ")\n"
            << "drain: " << drain_ok_count << " answered + " << drain_err_count
            << " settled-with-error of " << scenarios.size() << " in flight; server "
            << drain_requests << " requests == " << drain_responses << " responses -> "
            << (drain_ok ? "OK" : "FAIL") << "\n"
            << "sigterm: child exit " << sigterm_exit << ", every future settled -> "
            << (sigterm_ok ? "OK" : "FAIL") << "\n";

  bool pass = drain_ok && sigterm_ok;
  if (enforce_ratio) pass = pass && ratio_ok;
  std::cout << (pass ? "RESULT: PASS" : "RESULT: BELOW TARGET") << "\n";

  report.add("qps_local", qps_local);
  report.add("qps_remote", qps_remote);
  report.add("remote_over_local", ratio);
  report.add("ratio_min", ratio_min);
  report.add("ratio_gate_enforced", std::string(enforce_ratio ? "yes" : "no"));
  report.add("seconds_local", t_local);
  report.add("seconds_remote", t_remote);
  report.add("drain_answered", static_cast<std::int64_t>(drain_ok_count));
  report.add("drain_settled_with_error", static_cast<std::int64_t>(drain_err_count));
  report.add("drain_server_requests", static_cast<std::int64_t>(drain_requests));
  report.add("drain_server_responses", static_cast<std::int64_t>(drain_responses));
  report.add("drain_ok", std::string(drain_ok ? "yes" : "no"));
  report.add("sigterm_exit", sigterm_exit);
  report.add("sigterm_ok", std::string(sigterm_ok ? "yes" : "no"));
  report.add("gate", std::string(pass ? "pass" : "fail"));
  report.write();
  return pass ? 0 : 1;
}
