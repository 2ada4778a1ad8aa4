#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/socket.hpp"
#include "service/backend.hpp"
#include "support/thread_annotations.hpp"

namespace sts {

/// Connection knobs of a RemoteBackend.
struct RemoteConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< required; 0 throws at construction

  /// Client I/O threads; each owns one persistent keep-alive connection, so
  /// this is also the request concurrency toward the server. 0 = use the
  /// worker count the server reports (one lane per remote worker).
  std::size_t connections = 0;

  /// HTTP framing limits applied to server replies.
  HttpLimits http;

  /// Construction probes `GET /stats` to learn the server's worker count;
  /// these bound the wait for a server that is still starting up.
  int probe_retries = 50;
  std::chrono::milliseconds probe_retry_delay{100};
};

/// Client side of the cross-process seam: a `ScheduleBackend` whose
/// scheduling happens in another process, reached over the HTTP/1.1 wire
/// protocol served by `StsServer` / sts-serve. A ShardRouter holds it behind
/// the same `shared_ptr<ScheduleBackend>` as an in-process ScheduleService
/// and cannot tell the difference.
///
/// submit() serializes the envelope on the caller's thread, then hands the
/// body to a small pool of client threads, each keeping one persistent
/// keep-alive connection. A transport failure mid-request (peer closed the
/// keep-alive socket, send/recv error) is retried once on a fresh
/// connection; a second failure settles the future with a transport error —
/// errors are values here, never exceptions crossing threads, and a dead
/// server therefore settles every in-flight future instead of hanging
/// wait_idle().
///
/// A server reply settles the future with the `ScheduleResponse` its body
/// decodes to, whatever the HTTP code: a result, the server's own rejection
/// record, or its error — with the `invalid` bit, so a bad request throws
/// std::invalid_argument from `get()` here just as it does in-process. An
/// undecodable body is a transport error naming the HTTP status.
///
/// stats_snapshot() is one `GET /stats` fetch on a short-lived connection:
/// the parsed counters, the server's resident cache weight, and the raw
/// document all come from that single fetch, preserving the seam's
/// one-consistent-observation contract. It throws std::runtime_error when
/// the server is unreachable.
class RemoteBackend : public ScheduleBackend {
 public:
  /// Probes the server (retrying per `config`) for its worker count, then
  /// starts the client threads. Throws std::invalid_argument on port 0 and
  /// std::runtime_error when the server never becomes reachable.
  explicit RemoteBackend(RemoteConfig config);

  /// Settles every queued job (processing, not abandoning: client threads
  /// drain the queue before exiting), then joins the pool. No future
  /// obtained from submit() is ever left unsettled.
  ~RemoteBackend() override;

  RemoteBackend(const RemoteBackend&) = delete;
  RemoteBackend& operator=(const RemoteBackend&) = delete;

  [[nodiscard]] ServiceAdmission submit(ScheduleRequest request) override
      EXCLUDES(mutex_);
  void wait_idle() override EXCLUDES(mutex_);
  [[nodiscard]] Snapshot stats_snapshot() const override;

  /// The worker count the server reported at construction (its own shard
  /// parallelism, not this client's connection count).
  [[nodiscard]] std::size_t worker_count() const noexcept override {
    return worker_count_;
  }

 private:
  struct PendingJob {
    std::string body;  ///< serialized ScheduleRequest envelope
    std::promise<ScheduleResponse> promise;
  };

  void client_loop() EXCLUDES(mutex_);
  [[nodiscard]] ScheduleResponse perform(FdHandle& conn, const std::string& body) const;
  [[nodiscard]] ScheduleResponse decode(const HttpResponse& response) const;
  [[nodiscard]] ScheduleResponse transport_error(const std::string& detail) const;
  [[nodiscard]] std::string fetch(const char* target) const;

  RemoteConfig config_;
  std::size_t worker_count_ = 0;

  Mutex mutex_;
  CondVar jobs_cv_;  ///< signalled when jobs_ gains work or stopping_ flips
  CondVar idle_cv_;  ///< signalled when inflight_ drops
  std::deque<PendingJob> jobs_ GUARDED_BY(mutex_);
  std::size_t inflight_ GUARDED_BY(mutex_) = 0;  ///< queued + being performed
  bool stopping_ GUARDED_BY(mutex_) = false;

  std::vector<std::thread> clients_;
};

}  // namespace sts
