#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.hpp"
#include "net/socket.hpp"
#include "service/backend.hpp"
#include "support/thread_annotations.hpp"

namespace sts {

/// Sizing knobs of an StsServer.
struct ServerConfig {
  /// Bind address. Loopback only by design: the wire protocol is
  /// unauthenticated JSON, so the server must never face a public interface.
  std::string host = "127.0.0.1";

  /// TCP port; 0 = ephemeral (read the actual port back via port()).
  std::uint16_t port = 0;

  /// HTTP framing limits: request head and body caps (oversize → 413).
  HttpLimits http;
};

/// Minimal epoll-based HTTP/1.1 server exposing one `ScheduleBackend` over
/// the wire — the serving side of the cross-process seam:
///
///   POST /v1/schedule   body: ScheduleRequest::to_json()
///                       reply: ScheduleResponse::to_json()
///                       (200 ok, 503 rejected, 400 error — the body always
///                       carries the typed envelope)
///   GET  /stats         reply: the backend's stats_snapshot().json (the
///                       scrape endpoint; one consistent snapshot per fetch)
///   GET  /healthz       reply: {"status": "ok"} — liveness only, never
///                       touches the backend
///
/// Threading: one event-loop thread owns every connection (epoll,
/// level-triggered, non-blocking sockets — connection state needs no locks);
/// a responder pool, one thread per backend worker so every shard stays
/// fed, runs the blocking `backend->schedule()` calls and posts finished
/// responses back to the loop through an eventfd-signalled completion
/// queue. One request per connection is in flight at a time (pipelined
/// bytes wait buffered), so responses never reorder.
///
/// Graceful drain (the SIGTERM sequence of sts-serve): `drain()` closes the
/// listen socket, lets every in-flight request finish, answers with
/// `Connection: close`, closes idle connections immediately, and returns
/// when the last connection is gone — zero in-flight requests are lost.
/// `stop()` is the impatient variant: pending jobs are still answered, but
/// buffered not-yet-parsed requests are dropped with the connections.
class StsServer {
 public:
  /// Binds and starts serving immediately. Throws std::runtime_error when
  /// the socket can't be bound, std::invalid_argument on a null backend.
  StsServer(std::shared_ptr<ScheduleBackend> backend, ServerConfig config = {});
  ~StsServer();

  StsServer(const StsServer&) = delete;
  StsServer& operator=(const StsServer&) = delete;

  /// The bound TCP port (resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful drain as described above. Idempotent; blocks until every
  /// accepted request is answered and every connection is closed.
  void drain() EXCLUDES(jobs_mutex_, completions_mutex_);

  /// Drain-or-abort shutdown: answers in-flight jobs, closes everything,
  /// joins all threads. Idempotent; called by the destructor.
  void stop() EXCLUDES(jobs_mutex_, completions_mutex_);

  /// Transport-level counters (monotonic; the scheduling counters live in
  /// the backend's own stats).
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t requests = 0;     ///< complete HTTP requests parsed
    std::uint64_t responses = 0;    ///< responses written (any status)
    std::uint64_t http_errors = 0;  ///< 4xx/5xx responses among them
  };
  [[nodiscard]] Stats stats() const;

  /// The transport counters as a flat JSON document — what sts-serve flushes
  /// to stderr after a drain, next to the backend's /stats document.
  [[nodiscard]] std::string stats_json() const;

 private:
  /// Per-connection state, owned exclusively by the event-loop thread.
  struct Connection {
    FdHandle fd;
    std::uint64_t id = 0;
    std::string in;          ///< unparsed received bytes
    std::string out;         ///< unsent response bytes
    std::size_t out_sent = 0;
    bool pending = false;    ///< one request is with the responder pool
    bool want_close = false; ///< close once `out` is flushed
    bool peer_closed = false;
  };

  /// One schedule request handed to the responder pool.
  struct Job {
    std::uint64_t conn_id = 0;
    std::string body;
    bool keep_alive = true;
  };

  /// A finished response travelling back to the loop thread.
  struct Completion {
    std::uint64_t conn_id = 0;
    int status = 200;
    std::string body;
    bool keep_alive = true;
  };

  void event_loop() EXCLUDES(jobs_mutex_, completions_mutex_);
  void responder_loop() EXCLUDES(jobs_mutex_, completions_mutex_);
  [[nodiscard]] Completion run_job(Job job);

  // Loop-thread helpers (the loop-owned state below needs no locks). The
  // bool-returning ones report whether the connection is still alive —
  // false means it was closed (and destroyed) along the way, so the caller
  // must not touch it again.
  void accept_ready();
  [[nodiscard]] bool connection_readable(Connection& conn) EXCLUDES(jobs_mutex_);
  [[nodiscard]] bool connection_writable(Connection& conn);
  [[nodiscard]] bool parse_buffered(Connection& conn) EXCLUDES(jobs_mutex_);
  [[nodiscard]] bool queue_response(Connection& conn, int status, std::string_view body,
                                    bool keep_alive);
  void apply_completions() EXCLUDES(completions_mutex_, jobs_mutex_);
  void close_connection(Connection& conn);
  void update_epoll(Connection& conn);
  void begin_drain();
  void wake();

  std::shared_ptr<ScheduleBackend> backend_;
  ServerConfig config_;
  std::uint16_t port_ = 0;

  FdHandle epoll_fd_;
  FdHandle wake_fd_;  ///< eventfd: completions ready or state change

  // ---- event-loop-owned state (no locks: only event_loop() touches it) ----
  FdHandle listen_fd_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::unordered_map<int, std::uint64_t> fd_to_conn_;
  std::uint64_t next_conn_id_ = 1;

  std::atomic<bool> draining_{false};  ///< set by drain()/stop(), read by loop
  bool drain_begun_ = false;           ///< loop-owned: drain steps applied once

  Mutex jobs_mutex_;
  CondVar jobs_cv_;
  std::deque<Job> jobs_ GUARDED_BY(jobs_mutex_);
  bool responders_stop_ GUARDED_BY(jobs_mutex_) = false;

  Mutex completions_mutex_;
  std::vector<Completion> completions_ GUARDED_BY(completions_mutex_);

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> http_errors_{0};

  std::thread loop_thread_;
  std::vector<std::thread> responders_;
  bool stopped_ = false;  ///< stop() ran to completion (main thread only)
};

}  // namespace sts
