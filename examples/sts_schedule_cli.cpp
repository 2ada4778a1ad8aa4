// Command-line front end to the pass-based scheduling pipeline: read a
// canonical task graph from a text file (see graph/serialization.hpp for the
// format), schedule it with any scheduler registered in SchedulerRegistry,
// and emit the result in a choice of formats.
//
// Usage:
//   sts_schedule_cli <graph-file|-> [--pes N] [--scheduler <name>]
//                    [--variant lts|rlx|work] [--format table|gantt|json|dot]
//                    [--simulate] [--sim-engine bulk|tick] [--timings]
//   sts_schedule_cli sweep <scenario-file|-> [--threads N] [--cache-capacity N]
//                    [--repeat K] [--queue-depth N] [--backends N] [--spawn]
//                    [--simulate] [--sim-engine bulk|tick]
//   sts_schedule_cli --list-schedulers
//
// `--variant X` is shorthand for `--scheduler streaming-X`.
//
// `sweep` schedules a whole scenario list in parallel through the serving
// stack and emits a JSON array of ScheduleResponse records on stdout.
// Throughput and cache statistics go to stderr, ending with one
// machine-readable JSON line in the style of the BENCH_*.json bench reports.
// Every scenario is a ScheduleRequest envelope (service/request.hpp) and
// every submission goes through `submit(ScheduleRequest)`; with
// `--backends N` the requests are consistent-hash routed across N in-process
// ScheduleService backends by a ShardRouter (the cross-process sharding
// seam), otherwise one service serves them. Adding `--spawn` makes the fleet
// real: each backend becomes an sts-serve child process (fork/exec, see
// net/server_process.hpp) reached over HTTP through a RemoteBackend — same
// router, same envelopes, across actual process boundaries. The sts_serve
// binary is resolved via $STS_SERVE_BIN, falling back to `sts_serve` next to
// this executable; children are SIGTERM-drained when the sweep finishes.
// `--queue-depth` bounds every
// worker queue (submissions then apply backpressure instead of queueing
// without limit); `--simulate` chains the dataflow simulation after
// scheduling on the workers for scenarios that do not already request it.
//
// Scenario lines (# comments and blank lines skipped) are request-envelope
// JSON lines:
//   {"schema_version": 1, "scheduler": "streaming-rlx",
//    "machine": {"pes": 8}, "graph": {"generator": "fft", "param": 16,
//    "seed": 7}}
// with `graph` either a generator ref (chain | fft | gaussian | cholesky)
// or an inline {"nodes": [...], "edges": [...]} spec; optional members:
// sim, admission, priority, label. A line may instead be a delta envelope —
// `"base_key"` plus an `"edits"` list (see graph/graph_edit.hpp) in place of
// `"graph"` — rescheduling an edited variant of an earlier request. As sugar,
// `base_key` may name an earlier scenario line's label instead of a 16-hex
// digest; the sweep resolves it to that scenario's key_digest() before
// submitting (deltas themselves cannot be targets — their graph only
// materializes inside the service). Under the whole-graph cache, every
// backend composes a multi-partition graph from cached per-partition
// fragments, so near-duplicate and delta requests reschedule only the
// partitions they changed. A line that is not a valid envelope gets
// an error record (scenario label "request <line>", no pes or scheduler)
// and makes the sweep exit 1; the other lines are still served.
// `--repeat K` submits the list K times (duplicates shard onto the worker
// that computed them and hit its cache); results are emitted once.
//
// Example graph file:
//   node 0 source src
//   output 0 16
//   node 1 compute half
//   output 1 8
//   edge 0 1 16

#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedule_export.hpp"
#include "graph/dot_export.hpp"
#include "graph/serialization.hpp"
#include "net/remote_backend.hpp"
#include "net/server_process.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/schedule_cache.hpp"
#include "service/request.hpp"
#include "service/schedule_service.hpp"
#include "service/shard_router.hpp"
#include "sim/dataflow_sim.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <graph-file|-> [--pes N] [--scheduler <name>] [--variant lts|rlx|work]"
               " [--format table|gantt|json|dot] [--simulate] [--sim-engine bulk|tick]"
               " [--timings]\n"
               "       "
            << argv0
            << " sweep <scenario-file|-> [--threads N] [--cache-capacity N] [--repeat K]\n"
               "                        [--queue-depth N] [--backends N] [--spawn]\n"
               "                        [--simulate] [--sim-engine bulk|tick]\n"
               "       "
            << argv0 << " --list-schedulers\n";
  return 2;
}

int list_schedulers() {
  const auto& registry = sts::SchedulerRegistry::instance();
  sts::Table table({"name", "description"});
  for (const std::string& name : registry.names()) {
    table.add_row({name, std::string(registry.create(name)->description())});
  }
  table.print(std::cout);
  return 0;
}

void print_streaming_table(const sts::TaskGraph& graph, const sts::ScheduleResult& result) {
  using namespace sts;
  Table table({"task", "kind", "block", "PE", "ST", "FO", "LO"});
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    const TaskTiming& t = result.streaming->at(v);
    table.add_row({graph.name(v).empty() ? "n" + std::to_string(v) : graph.name(v),
                   to_string(graph.kind(v)), std::to_string(t.block), std::to_string(t.pe),
                   std::to_string(t.start), std::to_string(t.first_out),
                   std::to_string(t.last_out)});
  }
  table.print(std::cout);
  std::cout << "makespan " << result.makespan << ", speedup " << fmt(result.metrics.speedup, 2)
            << ", FIFO space " << result.buffers->total_capacity << "\n";
}

void print_list_table(const sts::TaskGraph& graph, const sts::ScheduleResult& result) {
  using namespace sts;
  Table table({"task", "kind", "PE", "start", "finish"});
  for (NodeId v = 0; static_cast<std::size_t>(v) < graph.node_count(); ++v) {
    const ListScheduleEntry& e = result.list->at(v);
    table.add_row({graph.name(v).empty() ? "n" + std::to_string(v) : graph.name(v),
                   to_string(graph.kind(v)), std::to_string(e.pe), std::to_string(e.start),
                   std::to_string(e.finish)});
  }
  table.print(std::cout);
  std::cout << "makespan " << result.makespan << ", speedup " << fmt(result.metrics.speedup, 2)
            << "\n";
}

// ------------------------------------------------------------------- sweep

struct SweepScenario {
  std::string label;
  sts::ScheduleRequest request;
  std::string error;  ///< non-empty: scenario failed to parse/build
};

std::vector<SweepScenario> parse_scenarios(std::istream& in) {
  std::vector<SweepScenario> scenarios;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;

    SweepScenario s;
    try {
      s.request = sts::ScheduleRequest::from_json(line);
      if (s.request.label.empty() && s.request.graph_ref) {
        s.request.label = s.request.graph_ref->label();
      }
      if (s.request.label.empty()) s.request.label = "request " + std::to_string(line_no);
      s.label = s.request.label;
    } catch (const std::exception& e) {
      s.error = "line " + std::to_string(line_no) + ": " + e.what();
      s.label = "request " + std::to_string(line_no);
    }
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

int run_sweep(int argc, char** argv) {
  using namespace sts;
  if (argc < 3) return usage(argv[0]);
  const std::string path = argv[2];
  std::size_t threads = 0;
  std::size_t cache_capacity = ScheduleCache::kDefaultCapacity;
  std::size_t queue_depth = 0;
  std::size_t backends = 0;  // 0 = single service, >= 1 = ShardRouter
  bool spawn = false;        // with --backends: real sts-serve child processes
  int repeat = 1;
  bool simulate = false;
  SimOptions sim_options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--threads") {
        threads = static_cast<std::size_t>(std::stoull(next()));
      } else if (arg == "--cache-capacity") {
        cache_capacity = static_cast<std::size_t>(std::stoull(next()));
      } else if (arg == "--queue-depth") {
        queue_depth = static_cast<std::size_t>(std::stoull(next()));
      } else if (arg == "--backends") {
        backends = static_cast<std::size_t>(std::stoull(next()));
      } else if (arg == "--spawn") {
        spawn = true;
      } else if (arg == "--repeat") {
        repeat = std::stoi(next());
        if (repeat < 1) throw std::invalid_argument("--repeat must be >= 1");
      } else if (arg == "--simulate") {
        simulate = true;
      } else if (arg == "--sim-engine") {
        const std::string which = next();
        if (which == "bulk") {
          sim_options.engine = SimEngine::kBulkAdvance;
        } else if (which == "tick") {
          sim_options.engine = SimEngine::kTickAccurate;
        } else {
          throw std::invalid_argument("unknown simulation engine " + which);
        }
        simulate = true;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  std::vector<SweepScenario> scenarios;
  if (path == "-") {
    scenarios = parse_scenarios(std::cin);
  } else {
    std::ifstream file(path);
    if (!file) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
    scenarios = parse_scenarios(file);
  }
  if (scenarios.empty()) {
    std::cerr << "error: no scenarios in " << path << "\n";
    return 1;
  }
  // `--simulate` chains simulation onto scenarios that did not ask for it
  // themselves (an envelope-specified `sim` wins over the flag).
  if (simulate) {
    for (SweepScenario& s : scenarios) {
      if (s.error.empty() && !s.request.sim) s.request.sim = sim_options;
    }
  }

  // Delta label sugar: resolve a `base_key` that names an earlier scenario's
  // label into that scenario's key_digest() — what the service registers the
  // base graph under. Runs after the --simulate splice above (sim options are
  // part of the digest). Deltas are not resolvable targets themselves: their
  // graph only materializes inside the service. An unresolved base_key is
  // forwarded verbatim (a real digest, or a typed error at the service).
  {
    std::unordered_map<std::string, std::string> digests;
    for (SweepScenario& s : scenarios) {
      if (!s.error.empty()) continue;
      if (s.request.base_key) {
        if (const auto it = digests.find(*s.request.base_key); it != digests.end()) {
          s.request.base_key = it->second;
        }
      } else {
        digests.emplace(s.label, s.request.key_digest());
      }
    }
  }

  ServiceConfig config;
  config.num_workers = threads;
  config.cache_capacity = cache_capacity;
  config.queue_depth = queue_depth;
  if (spawn && backends == 0) {
    std::cerr << "error: --spawn requires --backends N\n";
    return 2;
  }

  // Declared before service/router so the RemoteBackends (inside the router)
  // close their connections before the children are SIGTERM-drained.
  std::vector<std::unique_ptr<ServerProcess>> servers;
  std::unique_ptr<ScheduleService> service;
  std::unique_ptr<ShardRouter> router;
  std::size_t workers_total = 0;
  try {
    if (backends > 0) {
      RouterConfig router_config;
      router_config.num_backends = backends;
      router_config.backend = config;
      if (spawn) {
        // A real fleet: one sts-serve child per backend, each on an ephemeral
        // port, reached through RemoteBackend — the same router code path as
        // the in-process fleet, across actual process boundaries.
        const std::string binary = default_sts_serve_binary();
        std::vector<std::string> child_args = {"--port", "0"};
        if (threads > 0) {
          child_args.insert(child_args.end(), {"--threads", std::to_string(threads)});
        }
        if (queue_depth > 0) {
          child_args.insert(child_args.end(), {"--queue-depth", std::to_string(queue_depth)});
        }
        child_args.insert(child_args.end(),
                          {"--cache-capacity", std::to_string(cache_capacity)});
        servers.reserve(backends);
        for (std::size_t b = 0; b < backends; ++b) {
          servers.push_back(std::make_unique<ServerProcess>(binary, child_args));
        }
        router_config.backend_factory =
            [&servers](std::size_t index) -> std::shared_ptr<ScheduleBackend> {
          RemoteConfig remote;
          remote.port = servers.at(index)->port();
          return std::make_shared<RemoteBackend>(remote);
        };
      }
      router = std::make_unique<ShardRouter>(router_config);
      for (std::size_t b = 0; b < router->backend_count(); ++b) {
        workers_total += router->backend(b).worker_count();
      }
    } else {
      service = std::make_unique<ScheduleService>(config);
      workers_total = service->worker_count();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const auto do_submit = [&](ScheduleRequest request) {
    return router ? router->submit(std::move(request)) : service->submit(std::move(request));
  };
  const auto wait_all_idle = [&] { router ? router->wait_idle() : service->wait_idle(); };

  const auto start = std::chrono::steady_clock::now();
  std::vector<ScheduleService::Admission> admissions(scenarios.size());
  for (int round = 0; round < repeat; ++round) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      if (!scenarios[i].error.empty()) continue;
      // With --queue-depth, a kBlock submit applies backpressure: a full
      // worker queue stalls this loop instead of growing without bound.
      ScheduleService::Admission a = do_submit(scenarios[i].request);
      if (round == 0) admissions[i] = std::move(a);
    }
  }
  wait_all_idle();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Counted before the output loop: failures surfacing through wait() below
  // are still submissions.
  std::size_t parsed_ok = 0;
  for (const SweepScenario& s : scenarios) {
    if (s.error.empty()) ++parsed_ok;
  }

  bool any_failed = false;
  std::cout << "[\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SweepScenario& s = scenarios[i];
    // Per-scenario record: the unified ScheduleResponse JSON with the
    // scenario identity spliced in front. Ok responses already carry
    // "scheduler" (from the result), so the prefix adds it only to a failed
    // request; a line that never parsed has no request, so no pes or
    // scheduler to report.
    const ScheduleResponse response =
        s.error.empty() ? admissions[i].wait() : ScheduleResponse::failure(s.error);
    any_failed = any_failed || !response.ok();
    std::string prefix = "{\"scenario\": ";
    append_json_quoted(prefix, s.label);
    if (s.error.empty()) {
      prefix += ", \"pes\": " + std::to_string(s.request.machine.num_pes);
      if (!response.ok()) {
        prefix += ", \"scheduler\": ";
        append_json_quoted(prefix, s.request.scheduler);
      }
    }
    prefix += ", ";
    std::string record = response.to_json();
    record.replace(0, 1, prefix);
    std::cout << "  " << record << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  std::cout << "]\n";

  ScheduleService::Stats stats = router ? router->stats().total : service->stats();
  std::cerr << "sweep: " << stats.submitted << " jobs (" << parsed_ok << " schedulable of "
            << scenarios.size() << " scenarios x " << repeat << " rounds) on " << workers_total
            << " workers";
  if (router) {
    std::cerr << " across " << router->backend_count()
              << (spawn ? " spawned sts-serve backends" : " backends");
  }
  std::cerr << " in " << fmt(seconds, 3) << "s (" << fmt(stats.submitted / seconds, 1)
            << " jobs/s)\n"
            << "cache: " << stats.cache.hits << " hits, " << stats.cache.misses << " misses, "
            << stats.cache.races << " races, " << stats.cache.evictions << " evictions\n";

  // Machine-readable BENCH_*.json-style record (scalar keys plus arrays):
  // splice the sweep-level fields into the service/router stats_json()
  // object.
  const std::string sweep_fields =
      "\"bench\": \"sweep\", \"wall_seconds\": " + fmt(seconds, 6) +
      ", \"jobs_per_second\": " + fmt(stats.submitted / seconds, 1) +
      ", \"scenarios\": " + std::to_string(scenarios.size()) +
      ", \"rounds\": " + std::to_string(repeat);
  std::string stats_line = router ? router->stats_json() : service->stats_json();
  if (!stats_line.empty() && stats_line.front() == '{') {
    stats_line.insert(1, sweep_fields + ", ");
  } else {
    // stats_json() no longer renders a bare object: keep the record valid
    // JSON rather than emitting a corrupt splice.
    stats_line = "{" + sweep_fields + "}";
  }
  std::cerr << stats_line << "\n";
  return any_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sts;
  if (argc < 2) return usage(argv[0]);
  if (std::string(argv[1]) == "--list-schedulers") return list_schedulers();
  if (std::string(argv[1]) == "sweep") return run_sweep(argc, argv);

  std::string path = argv[1];
  std::string scheduler = "streaming-rlx";
  std::int64_t pes = 8;
  std::string format = "table";
  bool simulate = false;
  bool timings = false;
  SimEngine sim_engine = SimEngine::kAuto;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--pes") {
        pes = std::stoll(next());
      } else if (arg == "--scheduler") {
        scheduler = next();
      } else if (arg == "--variant") {
        scheduler = "streaming-" + next();
      } else if (arg == "--format") {
        format = next();
      } else if (arg == "--simulate") {
        simulate = true;
      } else if (arg == "--sim-engine") {
        const std::string which = next();
        if (which == "bulk") {
          sim_engine = SimEngine::kBulkAdvance;
        } else if (which == "tick") {
          sim_engine = SimEngine::kTickAccurate;
        } else {
          throw std::invalid_argument("unknown simulation engine " + which);
        }
        simulate = true;
      } else if (arg == "--timings") {
        timings = true;
      } else if (arg == "--list-schedulers") {
        return list_schedulers();
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  TaskGraph graph;
  try {
    if (path == "-") {
      graph = load_task_graph(std::cin);
    } else {
      std::ifstream file(path);
      if (!file) {
        std::cerr << "error: cannot open " << path << "\n";
        return 1;
      }
      graph = load_task_graph(file);
    }
    graph.validate_or_throw();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (format == "dot") {
    write_dot(std::cout, graph);
    return 0;
  }

  MachineConfig machine;
  machine.num_pes = pes;
  ScheduleResult result;
  try {
    result = schedule_by_name(scheduler, graph, machine);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (result.is_streaming()) {
    if (format == "json") {
      write_schedule_json(std::cout, graph, *result.streaming,
                          result.buffers ? &*result.buffers : nullptr);
    } else if (format == "gantt") {
      write_gantt(std::cout, graph, *result.streaming);
    } else {
      print_streaming_table(graph, result);
    }
  } else {
    if (format != "table") {
      std::cerr << "error: format " << format << " is only available for streaming schedulers\n";
      return 2;
    }
    if (result.list) {
      print_list_table(graph, result);
    } else if (result.csdf) {
      std::cout << "csdf: makespan " << result.csdf->makespan << ", firings "
                << result.csdf->firings << "\n";
    }
  }

  if (timings) {
    Table table({"pass", "seconds"});
    for (const PassTiming& t : result.timings) {
      table.add_row({t.pass, fmt(t.seconds * 1e6, 1) + " us"});
    }
    table.print(std::cout);
  }

  if (simulate) {
    if (!result.is_streaming()) {
      std::cerr << "error: --simulate requires a streaming scheduler\n";
      return 2;
    }
    SimOptions opts;
    opts.engine = sim_engine;
    const SimResult sim = simulate_streaming(graph, *result.streaming, *result.buffers, opts);
    std::cout << "simulation [" << to_string(sim.engine_used) << "]: makespan " << sim.makespan
              << (sim.deadlocked ? " DEADLOCK" : " (no deadlock)") << ", " << sim.live_ticks
              << " live ticks, " << sim.bulk_jumps << " bulk jumps\n";
    return sim.deadlocked ? 1 : 0;
  }
  return 0;
}
