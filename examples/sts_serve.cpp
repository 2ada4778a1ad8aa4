// sts-serve: one scheduling service process behind the HTTP/1.1 wire
// protocol (src/net/) — the serving side of the cross-process seam. A
// ShardRouter in another process reaches it through RemoteBackend; the sweep
// CLI's `--backends N --spawn` mode launches a fleet of these.
//
// Usage:
//   sts_serve [--port N] [--host ADDR] [--threads N] [--queue-depth N]
//             [--cache-capacity N]
//
//   --port N            TCP port; 0 (default) picks an ephemeral port
//   --host ADDR         bind address, default 127.0.0.1 (loopback only: the
//                       protocol is unauthenticated)
//   --threads N         service worker threads, 0 = hardware concurrency
//   --queue-depth N     per-worker queue bound (0 = unbounded); required for
//                       envelopes carrying "admission": "reject" to reject
//   --cache-capacity N  result-cache capacity
//
// The server runs one responder thread per service worker, and the service
// composes a multi-partition graph from cached per-partition fragments
// (pipeline/subgraph_cache.hpp) as every ScheduleService does.
//
// Startup handshake: exactly one line on stdout,
//
//     sts-serve listening on <host>:<port>
//
// (ServerProcess parses it to learn an ephemeral port). Logs go to stderr.
//
// Shutdown: SIGTERM (or SIGINT) starts the graceful drain — stop accepting,
// answer every in-flight request, close connections, wait for the service to
// go idle — then the final service stats document is flushed to stderr and
// the process exits 0. Zero accepted requests are lost.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "net/sts_server.hpp"
#include "service/schedule_service.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--host ADDR] [--threads N] [--queue-depth N]\n"
               "                 [--cache-capacity N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sts;
  ServiceConfig service_config;
  ServerConfig server_config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--port") {
        const unsigned long port = std::stoul(next());
        if (port > 65535) throw std::invalid_argument("--port out of range");
        server_config.port = static_cast<std::uint16_t>(port);
      } else if (arg == "--host") {
        server_config.host = next();
      } else if (arg == "--threads") {
        service_config.num_workers = static_cast<std::size_t>(std::stoull(next()));
      } else if (arg == "--queue-depth") {
        service_config.queue_depth = static_cast<std::size_t>(std::stoull(next()));
      } else if (arg == "--cache-capacity") {
        service_config.cache_capacity = static_cast<std::size_t>(std::stoull(next()));
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }
  // Block the shutdown signals before any thread exists so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, &signals, nullptr) != 0) {
    std::cerr << "error: pthread_sigmask failed\n";
    return 1;
  }

  try {
    auto service = std::make_shared<ScheduleService>(service_config);
    StsServer server(service, server_config);

    // The handshake line ServerProcess waits for. stdout is the handshake
    // channel and nothing else; logs go to stderr.
    std::printf("sts-serve listening on %s:%u\n", server_config.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    std::fprintf(stderr, "sts-serve: %zu workers, pid %ld\n", service->worker_count(),
                 static_cast<long>(getpid()));

    int signal_number = 0;
    while (sigwait(&signals, &signal_number) != 0) {
    }
    std::fprintf(stderr, "sts-serve: signal %d, draining\n", signal_number);

    // The SIGTERM sequence: stop accepting and settle every in-flight
    // request (drain), let the service finish anything still queued, then
    // flush the final counters — the document a supervisor scrapes post-hoc.
    server.drain();
    service->wait_idle();
    std::fprintf(stderr, "sts-serve: drained; transport %s\n", server.stats_json().c_str());
    std::fprintf(stderr, "%s\n", service->stats_json().c_str());
    server.stop();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
