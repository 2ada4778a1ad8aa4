// Net-layer coverage: the HTTP/1.1 parser subset (framing, limits, typed
// error statuses), the StsServer endpoints over real sockets (schedule
// round trips, /stats, /healthz, error paths, keep-alive), the graceful
// drain invariant (every accepted request is answered), RemoteBackend's
// outcome mapping including transport errors against a dead server and
// outcome parity with the in-process paths, and the fork/exec ServerProcess
// handshake + SIGTERM drain of a real sts-serve child.

#include "net/sts_server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_specs.hpp"
#include "graph/graph_edit.hpp"
#include "net/http.hpp"
#include "net/remote_backend.hpp"
#include "net/server_process.hpp"
#include "net/socket.hpp"
#include "pipeline/registry.hpp"
#include "service/schedule_service.hpp"
#include "service/shard_router.hpp"
#include "support/json.hpp"
#include "workloads/synthetic.hpp"

namespace sts {
namespace {

ScheduleRequest chain_request(int tasks, std::uint64_t seed, std::int64_t pes = 4) {
  ScheduleRequest request;
  request.graph = make_chain(tasks, seed);
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = pes;
  return request;
}

// ---------------------------------------------------------- HTTP/1.1 parser

TEST(HttpParser, RequestRoundTripsThroughRenderAndParse) {
  const std::string wire = render_http_request("POST", "/v1/schedule", "{\"x\": 1}");
  const HttpRequestParse parsed = parse_http_request(wire, HttpLimits{});
  ASSERT_EQ(parsed.status, HttpParseStatus::kComplete);
  EXPECT_EQ(parsed.consumed, wire.size());
  EXPECT_EQ(parsed.request.method, "POST");
  EXPECT_EQ(parsed.request.target, "/v1/schedule");
  EXPECT_EQ(parsed.request.body, "{\"x\": 1}");
  EXPECT_TRUE(parsed.request.keep_alive);
}

TEST(HttpParser, PartialInputNeedsMoreWithoutError) {
  const std::string wire = render_http_request("POST", "/v1/schedule", "{\"x\": 1}");
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    const HttpRequestParse parsed = parse_http_request(wire.substr(0, cut), HttpLimits{});
    EXPECT_EQ(parsed.status, HttpParseStatus::kNeedMore) << "cut at " << cut;
  }
}

TEST(HttpParser, PipelinedRequestsParseOneAtATime) {
  const std::string first = render_http_request("GET", "/healthz", "");
  const std::string second = render_http_request("POST", "/v1/schedule", "{}");
  std::string buffer = first + second;
  HttpRequestParse parsed = parse_http_request(buffer, HttpLimits{});
  ASSERT_EQ(parsed.status, HttpParseStatus::kComplete);
  EXPECT_EQ(parsed.request.target, "/healthz");
  buffer.erase(0, parsed.consumed);
  parsed = parse_http_request(buffer, HttpLimits{});
  ASSERT_EQ(parsed.status, HttpParseStatus::kComplete);
  EXPECT_EQ(parsed.request.target, "/v1/schedule");
  EXPECT_EQ(parsed.consumed, buffer.size());
}

TEST(HttpParser, MalformedRequestLineIs400) {
  for (const char* wire : {
           "GET /x HTTP/1.1 extra\r\n\r\n",   // four tokens
           "GET  /x HTTP/1.1\r\n\r\n",        // empty token
           "GET /x HTTP/2\r\n\r\n",           // unsupported version
           "GET /x HTTP/1.1\r\nbroken\r\n\r\n",  // colonless header
       }) {
    const HttpRequestParse parsed = parse_http_request(wire, HttpLimits{});
    EXPECT_EQ(parsed.status, HttpParseStatus::kError) << wire;
    EXPECT_EQ(parsed.error_status, 400) << wire;
  }
}

TEST(HttpParser, DuplicateOrBogusContentLengthIs400) {
  const HttpRequestParse dup = parse_http_request(
      "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi", HttpLimits{});
  EXPECT_EQ(dup.status, HttpParseStatus::kError);
  EXPECT_EQ(dup.error_status, 400);
  const HttpRequestParse bogus =
      parse_http_request("POST / HTTP/1.1\r\nContent-Length: 2x\r\n\r\nhi", HttpLimits{});
  EXPECT_EQ(bogus.status, HttpParseStatus::kError);
  EXPECT_EQ(bogus.error_status, 400);
}

TEST(HttpParser, TransferEncodingIs501) {
  const HttpRequestParse parsed = parse_http_request(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", HttpLimits{});
  EXPECT_EQ(parsed.status, HttpParseStatus::kError);
  EXPECT_EQ(parsed.error_status, 501);
}

TEST(HttpParser, LimitOverrunsAre413) {
  HttpLimits tight;
  tight.max_head_bytes = 64;
  tight.max_body_bytes = 8;
  // Head never terminates and already exceeds the cap: reject before buffering
  // more.
  const std::string long_head = "GET /" + std::string(100, 'a') + " HTTP/1.1\r\n";
  const HttpRequestParse head = parse_http_request(long_head, tight);
  EXPECT_EQ(head.status, HttpParseStatus::kError);
  EXPECT_EQ(head.error_status, 413);
  // Declared body exceeds the cap: reject from the header alone, before any
  // body bytes arrive.
  const HttpRequestParse body =
      parse_http_request("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n", tight);
  EXPECT_EQ(body.status, HttpParseStatus::kError);
  EXPECT_EQ(body.error_status, 413);
}

TEST(HttpParser, ResponseRoundTripsThroughRenderAndParse) {
  const std::string wire = render_http_response(503, "{\"status\": \"rejected\"}", false);
  const HttpResponseParse parsed = parse_http_response(wire, HttpLimits{});
  ASSERT_EQ(parsed.status, HttpParseStatus::kComplete);
  EXPECT_EQ(parsed.response.status, 503);
  EXPECT_FALSE(parsed.response.keep_alive);
  EXPECT_EQ(parsed.response.body, "{\"status\": \"rejected\"}");
}

// ------------------------------------------------------------- raw client

/// One blocking request/response exchange on an open connection.
HttpResponse http_exchange(const FdHandle& conn, const std::string& wire) {
  EXPECT_TRUE(send_all(conn.get(), wire));
  std::string buf;
  for (;;) {
    const HttpResponseParse parsed = parse_http_response(buf, HttpLimits{});
    if (parsed.status == HttpParseStatus::kComplete) return parsed.response;
    EXPECT_NE(parsed.status, HttpParseStatus::kError) << parsed.error;
    const long n = recv_some(conn.get(), buf, 1 << 20);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed before a full response";
      return {};
    }
  }
}

HttpResponse one_shot(std::uint16_t port, const std::string& wire) {
  return http_exchange(connect_tcp("127.0.0.1", port), wire);
}

struct ServerFixture {
  std::shared_ptr<ScheduleService> service;
  std::unique_ptr<StsServer> server;

  explicit ServerFixture(std::size_t workers = 1) {
    ServiceConfig config;
    config.num_workers = workers;
    config.cache_capacity = 1 << 16;
    service = std::make_shared<ScheduleService>(config);
    server = std::make_unique<StsServer>(service);
  }
  [[nodiscard]] std::uint16_t port() const { return server->port(); }
};

// --------------------------------------------------------------- StsServer

TEST(StsServer, SchedulesOverTheWireMatchingInProcessResults) {
  ServerFixture fixture;
  const ScheduleRequest request = chain_request(24, 7);
  const ScheduleResponse local = ScheduleService().schedule(chain_request(24, 7));
  ASSERT_TRUE(local.ok());

  const HttpResponse reply =
      one_shot(fixture.port(), render_http_request("POST", "/v1/schedule", request.to_json()));
  EXPECT_EQ(reply.status, 200);
  const ScheduleResponse remote = ScheduleResponse::from_json(reply.body);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote.result->makespan, local.result->makespan);
  EXPECT_EQ(remote.result->scheduler, local.result->scheduler);
}

TEST(StsServer, HealthzIsAliveAndStatsServesTheBackendDocument) {
  ServerFixture fixture;
  const HttpResponse health = one_shot(fixture.port(), render_http_request("GET", "/healthz", ""));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(parse_json(health.body).at("status").as_string(), "ok");

  (void)fixture.service->schedule(chain_request(12, 1));
  // The worker settles the future before it counts the completion: wait for
  // the books to balance, or /stats can read completed == 0.
  fixture.service->wait_idle();
  const HttpResponse stats = one_shot(fixture.port(), render_http_request("GET", "/stats", ""));
  EXPECT_EQ(stats.status, 200);
  const JsonDocument doc = parse_json(stats.body);
  EXPECT_EQ(doc.at("submitted").as_int(), 1);
  EXPECT_EQ(doc.at("completed").as_int(), 1);
  EXPECT_EQ(doc.at("schema_version").as_int(),
            static_cast<std::int64_t>(ScheduleService::kStatsSchemaVersion));
}

TEST(StsServer, ErrorPathsAnswerTypedStatusesAndEnvelopes) {
  ServerFixture fixture;
  const HttpResponse missing = one_shot(fixture.port(), render_http_request("GET", "/nope", ""));
  EXPECT_EQ(missing.status, 404);

  const HttpResponse bad_json =
      one_shot(fixture.port(), render_http_request("POST", "/v1/schedule", "{not json"));
  EXPECT_EQ(bad_json.status, 400);
  const ScheduleResponse envelope = ScheduleResponse::from_json(bad_json.body);
  EXPECT_EQ(envelope.status, ScheduleResponse::Status::kError);
  EXPECT_FALSE(envelope.error.empty());
  EXPECT_TRUE(envelope.invalid) << "a malformed envelope is a bad request";

  const HttpResponse wrong_method =
      one_shot(fixture.port(), render_http_request("GET", "/v1/schedule", ""));
  EXPECT_EQ(wrong_method.status, 404);

  // HTTP-level violations close the connection after the error reply.
  const HttpResponse not_impl = one_shot(
      fixture.port(), "POST /v1/schedule HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(not_impl.status, 501);
  EXPECT_FALSE(not_impl.keep_alive);
}

TEST(StsServer, KeepAliveServesManyRequestsOnOneConnection) {
  ServerFixture fixture;
  const FdHandle conn = connect_tcp("127.0.0.1", fixture.port());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const HttpResponse reply = http_exchange(
        conn, render_http_request("POST", "/v1/schedule", chain_request(10, seed).to_json()));
    ASSERT_EQ(reply.status, 200) << "seed " << seed;
    EXPECT_TRUE(reply.keep_alive);
    EXPECT_TRUE(ScheduleResponse::from_json(reply.body).ok());
  }
  const StsServer::Stats stats = fixture.server->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.responses, 5u);
  EXPECT_EQ(stats.http_errors, 0u);
}

TEST(StsServer, DrainAnswersEveryAcceptedRequest) {
  ServerFixture fixture;
  RemoteConfig remote_config;
  remote_config.port = fixture.port();
  remote_config.connections = 4;
  auto remote = std::make_unique<RemoteBackend>(remote_config);

  std::vector<ServiceFuture> futures;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    futures.push_back(remote->submit(chain_request(16, seed)).future);
  }
  fixture.server->drain();  // races the submissions on purpose

  // Zero lost in flight: every future settles (result, or transport error for
  // requests the drain closed the door on), and the server answered exactly
  // what it accepted.
  std::size_t ok = 0;
  for (ServiceFuture& future : futures) {
    const ScheduleResponse settled = future.response();
    if (settled.result != nullptr) ++ok;
    else EXPECT_FALSE(settled.error.empty());
  }
  const StsServer::Stats stats = fixture.server->stats();
  EXPECT_EQ(stats.requests, stats.responses);
  EXPECT_LE(ok, static_cast<std::size_t>(stats.responses));
  const ServiceStats service_stats = fixture.service->stats();
  EXPECT_EQ(service_stats.submitted, service_stats.completed + service_stats.rejected);
  remote.reset();
}

// ----------------------------------------------------------- RemoteBackend

TEST(RemoteBackend, RoundTripsResultsAndSnapshotsServerStats) {
  ServerFixture fixture(2);
  RemoteConfig config;
  config.port = fixture.port();
  RemoteBackend remote(config);
  EXPECT_EQ(remote.worker_count(), fixture.service->worker_count());

  const ScheduleResponse response = remote.schedule(chain_request(20, 3));
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response.result->makespan, 0);
  // The wire carries the summary, never the schedule artifacts.
  EXPECT_FALSE(response.result->streaming.has_value());

  remote.wait_idle();
  const ScheduleBackend::Snapshot snapshot = remote.stats_snapshot();
  EXPECT_EQ(snapshot.stats.submitted, 1u);
  EXPECT_EQ(snapshot.stats.completed, 1u);
  EXPECT_EQ(parse_json(snapshot.json).at("submitted").as_int(), 1);
}

TEST(RemoteBackend, RefusesConstructionWithoutAReachableServer) {
  RemoteConfig config;
  EXPECT_THROW(RemoteBackend{config}, std::invalid_argument);  // port 0
  config.port = 1;  // reserved port: nothing listens there
  config.probe_retries = 2;
  config.probe_retry_delay = std::chrono::milliseconds(1);
  EXPECT_THROW(RemoteBackend{config}, std::runtime_error);
}

TEST(RemoteBackend, SettlesWithTransportErrorWhenTheServerDies) {
  auto fixture = std::make_unique<ServerFixture>();
  RemoteConfig config;
  config.port = fixture->port();
  config.connections = 1;
  RemoteBackend remote(config);
  ASSERT_TRUE(remote.schedule(chain_request(8, 1)).ok());

  fixture->server->stop();
  fixture.reset();  // the port is gone

  const ScheduleResponse response = remote.schedule(chain_request(8, 2));
  EXPECT_EQ(response.status, ScheduleResponse::Status::kError);
  EXPECT_NE(response.error.find("remote backend"), std::string::npos);
  remote.wait_idle();  // must return despite the dead server
}

/// What `future.get()` did: "ok", or the type of the exception it threw.
std::string get_outcome(ServiceFuture future) {
  try {
    (void)future.get();
    return "ok";
  } catch (const std::invalid_argument&) {
    return "std::invalid_argument";
  } catch (const std::runtime_error&) {
    return "std::runtime_error";
  }
}

TEST(RemoteBackend, EveryServingPathSettlesTheSameOutcome) {
  // One service configuration behind all three paths.
  ServiceConfig config;
  config.num_workers = 2;
  ScheduleService service(config);
  RouterConfig router_config;
  router_config.num_backends = 2;
  router_config.backend = config;
  ShardRouter router(router_config);
  const StsServer server(std::make_shared<ScheduleService>(config));
  RemoteConfig remote_config;
  remote_config.port = server.port();
  RemoteBackend remote(remote_config);

  ScheduleRequest unknown_scheduler = chain_request(12, 5);
  unknown_scheduler.scheduler = "no-such-scheduler";
  ScheduleRequest unknown_base;
  unknown_base.base_key = "0123456789abcdef";
  unknown_base.edits = {
      GraphEdit{GraphEdit::Op::kSetEdgeVolume, NodeKind::kCompute, -1, 1, 2, 8, ""}};
  unknown_base.machine.num_pes = 4;
  // source -> a -> b on edges of 8, with a declaring 16: fails validation.
  ScheduleRequest invalid_graph = chain_request(12, 5);
  invalid_graph.graph = TaskGraph();
  const NodeId source = invalid_graph.graph.add_source(8, "source");
  const NodeId a = invalid_graph.graph.add_compute("a");
  const NodeId b = invalid_graph.graph.add_compute("b");
  invalid_graph.graph.add_edge(source, a, 8);
  invalid_graph.graph.add_edge(a, b, 8);
  invalid_graph.graph.declare_output(a, 16);
  invalid_graph.graph.declare_output(b, 8);
  ScheduleRequest tick_limited = chain_request(12, 5);
  tick_limited.sim = SimOptions{};
  tick_limited.sim->max_ticks = 1;

  struct Case {
    const char* name;
    ScheduleRequest request;
    ScheduleResponse::Status status;
    const char* thrown;  ///< get_outcome() of the future
  };
  const std::vector<Case> cases = {
      {"ok", chain_request(12, 5), ScheduleResponse::Status::kOk, "ok"},
      {"unknown scheduler", unknown_scheduler, ScheduleResponse::Status::kError,
       "std::invalid_argument"},
      {"unknown base_key", unknown_base, ScheduleResponse::Status::kError,
       "std::invalid_argument"},
      {"invalid graph", invalid_graph, ScheduleResponse::Status::kError, "std::invalid_argument"},
      {"tick-limited simulation", tick_limited, ScheduleResponse::Status::kError,
       "std::runtime_error"},
  };
  for (const Case& c : cases) {
    const ScheduleResponse expected = service.schedule(c.request);
    EXPECT_EQ(expected.status, c.status) << c.name << ": " << expected.to_json();
    const auto expect_same = [&](auto& path, const char* path_name) {
      EXPECT_EQ(path.schedule(c.request).to_json(), expected.to_json())
          << c.name << " through " << path_name;
      EXPECT_EQ(get_outcome(path.submit(c.request).future), c.thrown)
          << c.name << " through " << path_name;
    };
    expect_same(service, "ScheduleService");
    expect_same(router, "ShardRouter");
    expect_same(remote, "RemoteBackend");
  }
}

// ----------------------------------------------------------- ServerProcess

TEST(ServerProcess, SpawnsServesAndDrainsOnSigterm) {
  const std::string binary = default_sts_serve_binary();
  if (::access(binary.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "sts_serve binary not found at " << binary;
  }
  ServerProcess child(binary, {"--port", "0", "--threads", "1"});
  ASSERT_NE(child.port(), 0);

  RemoteConfig config;
  config.port = child.port();
  {
    RemoteBackend remote(config);
    const ScheduleResponse response = remote.schedule(chain_request(16, 5));
    ASSERT_TRUE(response.ok());
    const ScheduleBackend::Snapshot snapshot = remote.stats_snapshot();
    EXPECT_EQ(snapshot.stats.submitted, 1u);
  }
  // SIGTERM runs the graceful drain; a clean drain exits 0.
  EXPECT_EQ(child.terminate(), 0);
}

TEST(ServerProcess, DefaultChildComposesDeltasFromFragments) {
  const std::string binary = default_sts_serve_binary();
  if (::access(binary.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "sts_serve binary not found at " << binary;
  }
  // Three paper topologies as one three-partition base, then a delta that
  // retunes one exit node: a default child keeps every partition's fragment,
  // so the delta reschedules one partition and reuses the other two.
  ScheduleRequest base;
  testing::append_component(base.graph, make_fft(8, 1), "f");
  testing::append_component(base.graph, make_gaussian_elimination(6, 1), "g");
  testing::append_component(base.graph, make_cholesky(4, 1), "c");
  base.scheduler = "streaming-rlx";
  base.machine.num_pes = 8;
  NodeId exit = -1;
  for (NodeId v = 0; static_cast<std::size_t>(v) < base.graph.node_count(); ++v) {
    if (base.graph.kind(v) == NodeKind::kCompute && base.graph.out_degree(v) == 0) {
      exit = v;
      break;
    }
  }
  ASSERT_GE(exit, 0);
  ScheduleRequest delta;
  delta.base_key = base.key_digest();
  delta.edits = {GraphEdit{GraphEdit::Op::kSetOutput, NodeKind::kCompute, exit, -1, -1,
                           2 * base.graph.declared_output(exit), ""}};
  delta.scheduler = base.scheduler;
  delta.machine = base.machine;
  const TaskGraph edited = apply_graph_edits(base.graph, delta.edits);

  ServerProcess child(binary, {"--port", "0", "--threads", "1"});
  RemoteConfig config;
  config.port = child.port();
  {
    RemoteBackend remote(config);
    ASSERT_TRUE(remote.schedule(base).ok());
    const ScheduleResponse response = remote.schedule(delta);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.result->makespan,
              schedule_by_name("streaming-rlx", edited, delta.machine).makespan);
    remote.wait_idle();
    const ServiceStats stats = remote.stats_snapshot().stats;
    EXPECT_EQ(stats.subgraph.partition_misses, 4u);  // 3 cold + 1 edited
    EXPECT_EQ(stats.subgraph.partition_hits, 2u);
    EXPECT_EQ(stats.subgraph.delta_invalidated, 1u);
  }
  EXPECT_EQ(child.terminate(), 0);
}

TEST(ServerProcess, HandshakeFailureIsATypedError) {
  EXPECT_THROW(ServerProcess("/nonexistent/sts_serve", {}), std::runtime_error);
  // A process that never prints the listening line times out and is killed.
  EXPECT_THROW(ServerProcess("/bin/sleep", {"30"}, std::chrono::milliseconds(200)),
               std::runtime_error);
}

}  // namespace
}  // namespace sts
