// Shared infrastructure of the end-to-end benchmark: command-line options,
// the closed-loop client runner, in-memory span tracing, and the per-run
// report every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path (trace runs)
};

/// One recorded span: a named interval on one client thread. `parent` is the
/// index of the enclosing span in the same buffer (-1 for a root); spans of
/// one request share `request`, which child spans inherit from their root.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t request = -1;
};

/// Spans of one client thread, kept in memory until the run ends. Spans nest
/// strictly (a thread is inside one request at a time), so the innermost
/// open span is the parent of the next one.
class TraceBuffer {
 public:
  [[nodiscard]] std::int32_t open(const char* name, std::int64_t request) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    if (parent >= 0) request = spans_[static_cast<std::size_t>(parent)].request;
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    open_.push_back(index);
    return index;
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null buffer (untraced runs) records nothing. Only a root
/// span names its request.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name, std::int64_t request = -1)
      : buffer_(buffer) {
    if (buffer_ != nullptr) index_ = buffer_->open(name, request);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  std::int32_t index_ = -1;
};

/// What one workload run measured.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;   ///< why `correct` is false
  std::vector<double> latency_s;       ///< untraced timed requests
  std::vector<double> round_seconds;   ///< wall time of each untraced timed phase
  std::vector<double> setup_s;         ///< one sample per deployment built
  double child_peak_rss_mb = 0.0;      ///< fleet: max over rounds of Σ child VmHWM
  double speedup_geomean = 0.0;
  double traced_seconds = 0.0;         ///< trace runs: timed wall of the traced rounds
  std::uint64_t traced_requests = 0;
  std::map<std::string, double> counters;  ///< per-layer values not derived from spans

  void fail(std::string why) {
    correct = false;
    if (problems.size() < 8) problems.push_back(std::move(why));
  }
};

/// Closed loop: `clients` threads each take the next request index and
/// issue it only after their previous one completed. The first exception a
/// client throws stops every client and is rethrown on the calling thread
/// once all have joined, so the caller's clean-up runs.
template <typename Fn>
void run_clients(std::size_t count, int clients, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto body = [&](int client) {
    try {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i, client);
    } catch (...) {
      next.store(count);
      const std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  if (clients <= 1) {
    body(0);
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
  }
  if (error) std::rethrow_exception(error);
}

/// Peak resident set (VmHWM) of a process in MiB, 0 when unreadable.
[[nodiscard]] double peak_rss_mb(const std::string& pid = "self");

/// One workload, driven round by round by main.cpp: every round builds a
/// fresh deployment (timed as set-up), runs an untimed warm-up, then the
/// timed, seeded request sequence.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual int clients() const = 0;
  /// Rounds per run; a function of the run length only, so a run's request
  /// count is fixed by its options.
  [[nodiscard]] virtual std::size_t rounds(double seconds) const = 0;
  [[nodiscard]] virtual std::size_t requests_per_round() const = 0;
  [[nodiscard]] virtual std::size_t warmup_requests() const = 0;

  /// Builds the deployment and sends the workload's prerequisite requests.
  virtual void setup() = 0;
  /// Traced-only preparation after set-up: warms standalone layer
  /// instances outside the set-up timer.
  virtual void prepare_trace() {}
  virtual void warm(std::size_t index) = 0;
  /// Counter snapshot before the timed phase.
  virtual void begin_timed() {}
  /// Issues timed request `index` and returns its end-to-end latency in
  /// seconds. With a trace buffer it also records spans and re-invokes the
  /// layer functions on the same inputs.
  [[nodiscard]] virtual double request(std::size_t index, int client, TraceBuffer* trace) = 0;
  /// Counter snapshot after the timed phase; `count` is false for traced
  /// rounds, whose counts are left out.
  virtual void end_timed(bool count) { (void)count; }
  /// Records the round's replies for finish() and tears the deployment
  /// down (untimed).
  virtual void end_round(Report& report) = 0;
  /// After every round: oracle-dependent checks and summary metrics.
  virtual void finish(Report& report) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options);

}  // namespace perfbench
