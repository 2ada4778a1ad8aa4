#include "net/remote_backend.hpp"

#include <stdexcept>
#include <utility>

#include "support/json.hpp"

namespace sts {

namespace {

/// Blocking request/response round trip on an established connection.
/// Returns false on any transport fault (send failure, peer close, oversize
/// or malformed reply) — the caller decides whether to retry on a fresh
/// connection.
[[nodiscard]] bool http_round_trip(int fd, std::string_view wire, const HttpLimits& limits,
                                   HttpResponse& out) {
  if (!send_all(fd, wire)) return false;
  std::string buf;
  const std::size_t cap = limits.max_head_bytes + limits.max_body_bytes + 4;
  for (;;) {
    HttpResponseParse parsed = parse_http_response(buf, limits);
    if (parsed.status == HttpParseStatus::kComplete) {
      out = std::move(parsed.response);
      return true;
    }
    if (parsed.status == HttpParseStatus::kError) return false;
    if (buf.size() >= cap) return false;
    const long n = recv_some(fd, buf, cap - buf.size());
    if (n <= 0) return false;
  }
}

}  // namespace

RemoteBackend::RemoteBackend(RemoteConfig config) : config_(std::move(config)) {
  if (config_.port == 0) {
    throw std::invalid_argument("remote backend: a concrete server port is required");
  }

  // Learn the server's worker count before accepting work: it sizes both the
  // seam's worker_count() answer and (by default) the client pool. Retry —
  // the server process may still be binding its socket.
  std::string error;
  for (int attempt = 0;; ++attempt) {
    try {
      const std::string body = fetch("/stats");
      const JsonDocument stats = parse_json(body);
      const JsonValue* workers = stats.find("workers");
      const std::int64_t count = workers == nullptr ? 0 : workers->as_int();
      worker_count_ = count > 0 ? static_cast<std::size_t>(count) : 1;
      break;
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (attempt + 1 >= config_.probe_retries) {
      throw std::runtime_error("remote backend: server " + config_.host + ":" +
                               std::to_string(config_.port) + " unreachable (" + error + ")");
    }
    std::this_thread::sleep_for(config_.probe_retry_delay);
  }

  std::size_t lanes = config_.connections > 0 ? config_.connections : worker_count_;
  if (lanes == 0) lanes = 1;
  clients_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    clients_.emplace_back([this] { client_loop(); });
  }
}

RemoteBackend::~RemoteBackend() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& client : clients_) client.join();

  // Client threads drain the queue before exiting, so this only fires when
  // construction itself failed to start any — still: no future is abandoned.
  std::deque<PendingJob> leftovers;
  {
    MutexLock lock(mutex_);
    leftovers.swap(jobs_);
    inflight_ -= leftovers.size();
  }
  for (PendingJob& job : leftovers) {
    job.promise.set_value(transport_error("backend shutting down"));
  }
  idle_cv_.notify_all();
}

ServiceAdmission RemoteBackend::submit(ScheduleRequest request) {
  // Serialize on the caller's thread: the envelope (and its key memo) never
  // crosses into the client pool, only bytes do.
  std::string body = request.to_json();
  std::promise<ScheduleResponse> promise;
  ServiceFuture future(promise.get_future());
  bool rejected_late = false;
  {
    MutexLock lock(mutex_);
    if (stopping_) {
      rejected_late = true;
    } else {
      ++inflight_;
      jobs_.push_back(PendingJob{std::move(body), std::move(promise)});
    }
  }
  if (rejected_late) {
    promise.set_value(transport_error("backend shutting down"));
  } else {
    jobs_cv_.notify_one();
  }
  return ServiceAdmission{std::move(future), std::nullopt};
}

void RemoteBackend::wait_idle() {
  MutexLock lock(mutex_);
  while (inflight_ != 0) idle_cv_.wait(mutex_);
}

void RemoteBackend::client_loop() {
  FdHandle conn;  // persistent keep-alive connection, owned by this thread
  for (;;) {
    PendingJob job;
    {
      MutexLock lock(mutex_);
      while (jobs_.empty() && !stopping_) jobs_cv_.wait(mutex_);
      if (jobs_.empty()) return;  // stopping, queue drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job.promise.set_value(perform(conn, job.body));
    {
      MutexLock lock(mutex_);
      --inflight_;
    }
    idle_cv_.notify_all();
  }
}

ScheduleResponse RemoteBackend::perform(FdHandle& conn, const std::string& body) const {
  const std::string wire = render_http_request("POST", "/v1/schedule", body);
  // One transparent retry on a fresh connection: a keep-alive peer may close
  // between requests, which only surfaces as a failed send/recv here.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!conn.valid()) {
      try {
        conn = connect_tcp(config_.host, config_.port);
      } catch (const std::exception& e) {
        return transport_error(e.what());  // refused outright: retrying is futile
      }
    }
    HttpResponse response;
    if (http_round_trip(conn.get(), wire, config_.http, response)) {
      if (!response.keep_alive) conn.reset();
      return decode(response);
    }
    conn.reset();  // poisoned connection; retry once on a fresh one
  }
  return transport_error("request failed after reconnect");
}

ScheduleResponse RemoteBackend::decode(const HttpResponse& response) const {
  try {
    return ScheduleResponse::from_json(response.body);
  } catch (const std::exception& e) {
    return transport_error("HTTP " + std::to_string(response.status) +
                           " with undecodable body: " + e.what());
  }
}

ScheduleResponse RemoteBackend::transport_error(const std::string& detail) const {
  return ScheduleResponse::failure("remote backend " + config_.host + ":" +
                                   std::to_string(config_.port) + ": " + detail);
}

std::string RemoteBackend::fetch(const char* target) const {
  FdHandle conn = connect_tcp(config_.host, config_.port);
  HttpResponse response;
  if (!http_round_trip(conn.get(), render_http_request("GET", target, {}), config_.http,
                       response)) {
    throw std::runtime_error("remote backend: GET " + std::string(target) + " on " +
                             config_.host + ":" + std::to_string(config_.port) + " failed");
  }
  if (response.status != 200) {
    throw std::runtime_error("remote backend: GET " + std::string(target) + " answered HTTP " +
                             std::to_string(response.status));
  }
  return std::move(response.body);
}

ScheduleBackend::Snapshot RemoteBackend::stats_snapshot() const {
  Snapshot snapshot;
  snapshot.json = fetch("/stats");
  const JsonDocument stats = parse_json(snapshot.json);
  snapshot.stats = service_stats_from_json(stats);
  if (const JsonValue* weight = stats.find("cache_weight")) {
    const std::int64_t w = weight->as_int();
    if (w > 0) snapshot.cache_weight = static_cast<std::size_t>(w);
  }
  return snapshot;
}

}  // namespace sts
