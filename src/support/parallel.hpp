#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace sts {

/// Process-wide fixed worker pool for fork-join task parallelism.
///
/// One pool serves every parallel region in the process, a leaked singleton
/// (its workers outlive main). Workers spin briefly waiting for a region
/// before parking on a condition variable, so the per-region fork-join
/// latency stays in the microseconds — small enough to fan out one Kahn
/// wave of the level passes.
///
/// One region runs at a time: a second concurrent begin() (another service
/// worker, or a nested parallel_for) is refused and the caller runs its
/// chunks inline. That keeps the pool deadlock-free by construction — a
/// worker can never block on a region that needs the worker itself.
class TaskPool {
 public:
  /// Chunk trampoline; must not throw (Parallel catches inside it).
  using ChunkFn = void (*)(void* ctx, int chunk) noexcept;

  [[nodiscard]] static TaskPool& global();

  /// Worker threads (excluding the caller). At least 1 even on single-core
  /// machines so the parallel machinery is genuinely exercised everywhere.
  [[nodiscard]] int worker_count() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Runs fn(ctx, c) for every c in [0, chunks), caller participating, and
  /// returns true once all chunks finished. Returns false without running
  /// anything when another region is already in flight (including a region
  /// on this thread: run the chunks inline instead).
  bool try_run(int chunks, ChunkFn fn, void* ctx) EXCLUDES(mutex_);

  /// True on pool worker threads (nested regions must run inline).
  [[nodiscard]] static bool on_worker_thread() noexcept;

 private:
  struct Job {
    ChunkFn fn = nullptr;
    void* ctx = nullptr;
    int chunks = 0;
    std::atomic<int> next{0};  ///< next unclaimed chunk
    std::atomic<int> done{0};  ///< chunks fully executed
  };

  TaskPool();
  void worker_main() EXCLUDES(mutex_);
  static void work_on(Job& job) noexcept;

  std::vector<std::thread> workers_;
  std::atomic<bool> busy_{false};     ///< a region is in flight
  std::atomic<Job*> job_{nullptr};    ///< current region, null between regions
  std::atomic<int> active_{0};        ///< workers currently inside a region
  /// Region sequence number. Deliberately NOT GUARDED_BY(mutex_): the worker
  /// spin loop reads it lock-free; the mutex only makes the try_run bump
  /// visible to a worker the instant it wakes from cv_.wait.
  std::atomic<std::uint64_t> generation_{0};
  Mutex mutex_;  ///< parks idle workers
  CondVar cv_;
};

/// Execution-lane handle for one scheduling request, resolved from the
/// `intra_threads` knob: 1 = serial (the default everywhere), 0 = one lane
/// per hardware thread, N = up to N lanes (clamped to the pool size).
///
/// Determinism contract: for_range partitions [0, n) into contiguous chunks
/// whose boundaries depend only on (n, grain, lanes). Callers whose chunks
/// write disjoint ranges therefore produce results bit-identical to the
/// serial path at every lane count.
class Parallel {
 public:
  Parallel() noexcept : lanes_(1) {}
  explicit Parallel(std::int64_t intra_threads) noexcept;

  [[nodiscard]] int lanes() const noexcept { return lanes_; }
  [[nodiscard]] bool serial() const noexcept { return lanes_ <= 1; }

  /// fn(begin, end) over contiguous chunks of [0, n), each at least `grain`
  /// long (one chunk, run inline, when n < 2 * grain or lanes() == 1).
  template <typename Fn>
  void for_range(std::int64_t n, std::int64_t grain, Fn&& fn) const {
    if (n <= 0) return;
    const int chunks = chunk_count(n, grain);
    if (chunks <= 1) {
      fn(std::int64_t{0}, n);
      return;
    }
    auto body = [&](int c) {
      fn(n * c / chunks, n * (c + 1) / chunks);
    };
    run_chunks(chunks, body);
  }

 private:
  [[nodiscard]] int chunk_count(std::int64_t n, std::int64_t grain) const noexcept {
    if (lanes_ <= 1) return 1;
    if (grain < 1) grain = 1;
    const std::int64_t by_grain = n / grain;
    const std::int64_t chunks = by_grain < lanes_ ? by_grain : std::int64_t{lanes_};
    return chunks < 1 ? 1 : static_cast<int>(chunks);
  }

  /// Dispatches chunk bodies to the pool; falls back to an inline serial
  /// sweep when the pool is busy or this is a nested region. Rethrows the
  /// first chunk exception after all chunks settle.
  template <typename Body>
  void run_chunks(int chunks, Body& body) const {
    struct Trampoline {
      Body* body = nullptr;
      Mutex error_mutex{};
      std::exception_ptr error GUARDED_BY(error_mutex) = nullptr;
      std::atomic<bool> failed{false};
      static void call(void* self_erased, int chunk) noexcept {
        auto* self = static_cast<Trampoline*>(self_erased);
        if (self->failed.load(std::memory_order_acquire)) return;  // drain fast
        try {
          (*self->body)(chunk);
        } catch (...) {
          const MutexLock lock(self->error_mutex);
          if (!self->error) self->error = std::current_exception();
          self->failed.store(true, std::memory_order_release);
        }
      }
    };
    Trampoline trampoline{&body};
    if (TaskPool::on_worker_thread() ||
        !TaskPool::global().try_run(chunks, &Trampoline::call, &trampoline)) {
      for (int c = 0; c < chunks; ++c) Trampoline::call(&trampoline, c);
    }
    std::exception_ptr error;
    {
      const MutexLock lock(trampoline.error_mutex);
      error = trampoline.error;
    }
    if (error) std::rethrow_exception(error);
  }

  int lanes_;
};

}  // namespace sts
