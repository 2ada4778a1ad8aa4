#include "net/sts_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "service/request.hpp"

namespace sts {

namespace {

constexpr std::string_view kHealthBody = "{\"status\": \"ok\"}";

/// listen(2) backlog.
constexpr int kListenBacklog = 64;

[[nodiscard]] std::string error_envelope(std::string_view detail) {
  return ScheduleResponse::failure(std::string(detail)).to_json();
}

void epoll_add(int epoll_fd, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error(errno_message("net: epoll_ctl ADD"));
  }
}

}  // namespace

StsServer::StsServer(std::shared_ptr<ScheduleBackend> backend, ServerConfig config)
    : backend_(std::move(backend)), config_(std::move(config)) {
  if (!backend_) throw std::invalid_argument("StsServer: backend must not be null");

  listen_fd_ = listen_tcp(config_.host, config_.port, kListenBacklog);
  set_nonblocking(listen_fd_.get(), true);
  port_ = local_port(listen_fd_.get());

  epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) throw std::runtime_error(errno_message("net: epoll_create1"));
  wake_fd_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_fd_.valid()) throw std::runtime_error(errno_message("net: eventfd"));
  epoll_add(epoll_fd_.get(), listen_fd_.get(), EPOLLIN);
  epoll_add(epoll_fd_.get(), wake_fd_.get(), EPOLLIN);

  const std::size_t responders = std::max<std::size_t>(1, backend_->worker_count());
  responders_.reserve(responders);
  for (std::size_t i = 0; i < responders; ++i) {
    responders_.emplace_back([this] { responder_loop(); });
  }
  loop_thread_ = std::thread([this] { event_loop(); });
}

StsServer::~StsServer() { stop(); }

void StsServer::wake() {
  const std::uint64_t one = 1;
  // A full eventfd counter (impossible here) or EINTR both leave the loop
  // already scheduled to wake; best-effort is correct.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof one);
}

void StsServer::drain() {
  draining_.store(true, std::memory_order_release);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void StsServer::stop() {
  if (stopped_) return;
  drain();
  {
    const MutexLock lock(jobs_mutex_);
    responders_stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& responder : responders_) {
    if (responder.joinable()) responder.join();
  }
  stopped_ = true;
}

StsServer::Stats StsServer::stats() const {
  Stats out;
  out.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.responses = responses_.load(std::memory_order_relaxed);
  out.http_errors = http_errors_.load(std::memory_order_relaxed);
  return out;
}

std::string StsServer::stats_json() const {
  const Stats s = stats();
  const auto field = [](const char* key, std::uint64_t value) {
    return std::string("\"") + key + "\": " + std::to_string(value);
  };
  std::string json = "{";
  json += field("connections_accepted", s.connections_accepted);
  json += ", " + field("requests", s.requests);
  json += ", " + field("responses", s.responses);
  json += ", " + field("http_errors", s.http_errors);
  json += "}";
  return json;
}

// ---------------------------------------------------------------- responders

void StsServer::responder_loop() {
  for (;;) {
    Job job;
    {
      const MutexLock lock(jobs_mutex_);
      while (!responders_stop_ && jobs_.empty()) jobs_cv_.wait(jobs_mutex_);
      if (jobs_.empty()) return;  // stopping, and fully drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    Completion completion = run_job(std::move(job));
    {
      const MutexLock lock(completions_mutex_);
      completions_.push_back(std::move(completion));
    }
    wake();
  }
}

StsServer::Completion StsServer::run_job(Job job) {
  Completion completion;
  completion.conn_id = job.conn_id;
  completion.keep_alive = job.keep_alive;
  try {
    ScheduleRequest request = ScheduleRequest::from_json(job.body);
    const ScheduleResponse response = backend_->schedule(std::move(request));
    switch (response.status) {
      case ScheduleResponse::Status::kOk: completion.status = 200; break;
      case ScheduleResponse::Status::kRejected: completion.status = 503; break;
      case ScheduleResponse::Status::kError: completion.status = 400; break;
    }
    completion.body = response.to_json();
  } catch (...) {
    // Malformed envelope (marked invalid, like any bad request) or a
    // submit-time refusal: a typed error reply, never a dropped connection —
    // the server itself stays healthy.
    completion.status = 400;
    completion.body = ScheduleResponse::from_current_exception().to_json();
  }
  return completion;
}

// ---------------------------------------------------------------- event loop

void StsServer::event_loop() {
  epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed: nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) {
        std::uint64_t counter = 0;
        [[maybe_unused]] const ssize_t r = ::read(wake_fd_.get(), &counter, sizeof counter);
        continue;
      }
      if (listen_fd_.valid() && fd == listen_fd_.get()) {
        accept_ready();
        continue;
      }
      const auto fd_it = fd_to_conn_.find(fd);
      if (fd_it == fd_to_conn_.end()) continue;  // closed earlier this batch
      const std::uint64_t conn_id = fd_it->second;
      Connection* conn = connections_.at(conn_id).get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 && !conn->pending) {
        close_connection(*conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        if (!connection_readable(*conn)) continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        // Re-resolve: the read half may have closed (and freed) it.
        const auto again = connections_.find(conn_id);
        if (again == connections_.end()) continue;
        if (!connection_writable(*again->second)) continue;
      }
    }
    apply_completions();
    if (draining_.load(std::memory_order_acquire)) begin_drain();
    if (drain_begun_ && connections_.empty()) return;
  }
}

void StsServer::begin_drain() {
  if (drain_begun_) return;
  drain_begun_ = true;
  listen_fd_.reset();  // closing deregisters it from epoll
  // Close idle connections now; flag busy ones to close after their reply
  // flushes. Collect first — close_connection mutates connections_.
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (!conn->pending && conn->out.empty()) {
      idle.push_back(id);
    } else {
      conn->want_close = true;
    }
  }
  for (const std::uint64_t id : idle) close_connection(*connections_.at(id));
}

void StsServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient accept error: epoll re-arms
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = FdHandle(fd);
    conn->id = next_conn_id_++;
    try {
      epoll_add(epoll_fd_.get(), fd, EPOLLIN);
    } catch (const std::exception&) {
      continue;  // conn (and its fd) die here; keep accepting
    }
    fd_to_conn_.emplace(fd, conn->id);
    connections_.emplace(conn->id, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void StsServer::close_connection(Connection& conn) {
  // Closing the fd deregisters it from epoll; a job still in flight for this
  // connection settles into a completion whose conn_id no longer resolves
  // and is dropped.
  fd_to_conn_.erase(conn.fd.get());
  const std::uint64_t id = conn.id;
  connections_.erase(id);  // destroys conn — do not touch it past this line
}

bool StsServer::connection_readable(Connection& conn) {
  // Keep one request's worth of headroom buffered beyond the parse limits:
  // enough for a complete maximal request plus the pipelined head of the
  // next, little enough that a flooding client can't balloon the buffer.
  const std::size_t cap = 2 * (config_.http.max_head_bytes + config_.http.max_body_bytes);
  for (;;) {
    if (conn.in.size() >= cap) {
      // Far beyond anything the protocol produces (one request in flight at
      // a time): a flooding client, not a slow parser. Drop it rather than
      // busy-loop on a level-triggered fd we refuse to read.
      close_connection(conn);
      return false;
    }
    const long n = recv_some(conn.fd.get(), conn.in, cap - conn.in.size());
    if (n > 0) continue;
    if (n == 0) {
      conn.peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(conn);
    return false;
  }
  if (!conn.pending && !parse_buffered(conn)) return false;
  if (conn.peer_closed && !conn.pending && conn.out.empty()) {
    close_connection(conn);
    return false;
  }
  return true;
}

bool StsServer::parse_buffered(Connection& conn) {
  while (!conn.pending && !conn.want_close) {
    HttpRequestParse parsed = parse_http_request(conn.in, config_.http);
    if (parsed.status == HttpParseStatus::kNeedMore) return true;
    if (parsed.status == HttpParseStatus::kError) {
      // Framing is unrecoverable after a protocol error: answer, then close.
      conn.in.clear();
      requests_.fetch_add(1, std::memory_order_relaxed);
      return queue_response(conn, parsed.error_status, error_envelope(parsed.error), false);
    }
    conn.in.erase(0, parsed.consumed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    const HttpRequest& request = parsed.request;
    const bool keep_alive = request.keep_alive && !draining_.load(std::memory_order_acquire);
    if (request.method == "POST" && request.target == "/v1/schedule") {
      conn.pending = true;
      {
        const MutexLock lock(jobs_mutex_);
        jobs_.push_back(Job{conn.id, std::move(parsed.request.body), keep_alive});
      }
      jobs_cv_.notify_one();
      return true;
    }
    bool alive = true;
    if (request.method == "GET" && request.target == "/healthz") {
      alive = queue_response(conn, 200, kHealthBody, keep_alive);
    } else if (request.method == "GET" && request.target == "/stats") {
      // One consistent snapshot per scrape; cheap enough to serve inline.
      alive = queue_response(conn, 200, backend_->stats_snapshot().json, keep_alive);
    } else {
      alive = queue_response(
          conn, 404,
          error_envelope("unknown endpoint " + request.method + " " + request.target),
          keep_alive);
    }
    if (!alive) return false;
  }
  return true;
}

bool StsServer::queue_response(Connection& conn, int status, std::string_view body,
                               bool keep_alive) {
  conn.out += render_http_response(status, body, keep_alive);
  responses_.fetch_add(1, std::memory_order_relaxed);
  if (status >= 400) http_errors_.fetch_add(1, std::memory_order_relaxed);
  if (!keep_alive) conn.want_close = true;
  return connection_writable(conn);  // flush eagerly; falls back to EPOLLOUT
}

bool StsServer::connection_writable(Connection& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd.get(), conn.out.data() + conn.out_sent,
                             conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      update_epoll(conn);
      return true;
    }
    close_connection(conn);  // peer vanished mid-reply
    return false;
  }
  conn.out.clear();
  conn.out_sent = 0;
  if (conn.want_close || conn.peer_closed) {
    if (!conn.pending) {
      close_connection(conn);
      return false;
    }
    return true;  // reply for the in-flight job still owed
  }
  update_epoll(conn);
  // The reply is out: pipelined bytes buffered behind it may hold the next
  // request.
  if (!conn.pending && !conn.in.empty()) return parse_buffered(conn);
  return true;
}

void StsServer::update_epoll(Connection& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn.out_sent < conn.out.size() ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd.get();
  (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void StsServer::apply_completions() {
  std::vector<Completion> done;
  {
    const MutexLock lock(completions_mutex_);
    done.swap(completions_);
  }
  for (Completion& completion : done) {
    const auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // connection died while computing
    Connection& conn = *it->second;
    conn.pending = false;
    const bool keep_alive =
        completion.keep_alive && !draining_.load(std::memory_order_acquire);
    if (!queue_response(conn, completion.status, completion.body, keep_alive)) continue;
    const auto again = connections_.find(completion.conn_id);
    if (again == connections_.end()) continue;
    Connection& still = *again->second;
    if (still.peer_closed && !still.pending && still.out.empty()) {
      close_connection(still);
    }
  }
}

}  // namespace sts
