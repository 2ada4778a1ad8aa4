#include "service/schedule_service.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/graph_edit.hpp"
#include "pipeline/passes.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/schedule_context.hpp"
#include "support/text.hpp"

namespace sts {

ScheduleService::ScheduleService(ServiceConfig config)
    : cache_(config.cache_capacity),
      queue_depth_(config.queue_depth),
      bases_(config.base_registry_capacity) {
  std::size_t n = config.num_workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(*shards_[i]); });
  }
}

ScheduleService::~ScheduleService() { shutdown(); }

ScheduleService::Admission ScheduleService::submit(ScheduleRequest request) {
  if (stopping_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ScheduleService: submit after shutdown");
  }
  // A delta request names its base by digest and carries edits instead of a
  // graph: materialize the edited graph here, before anything derives from
  // the request — downstream (key, cache, scheduling) a delta is then
  // indistinguishable from the equivalent whole-graph request. Resolution
  // failures (unknown base, invalid edit) settle through the returned future
  // so the service itself stays healthy.
  if (request.base_key.has_value()) {
    const bool delta_simulate = request.sim.has_value();
    try {
      const std::shared_ptr<const TaskGraph> base = find_base(*request.base_key);
      if (!base) {
        throw std::invalid_argument("ScheduleService: unknown base_key '" + *request.base_key +
                                    "' (never submitted here, or aged out of the base registry)");
      }
      request.graph = apply_graph_edits(*base, request.edits);
      // Validate the composed graph NOW, not at schedule time: an edit list
      // composing a non-canonical graph — say a retuned output contradicting
      // its out-edge volume — fails here as a typed composition error, before
      // it is keyed, cached, or remembered as a base for later deltas.
      if (const std::vector<std::string> violations = request.graph.validate();
          !violations.empty()) {
        std::string message = "ScheduleService: edits compose an invalid graph:";
        for (const std::string& v : violations) {
          message += "\n  - ";
          message += v;
        }
        throw std::invalid_argument(message);
      }
      // The request identity changed with the graph: drop any memoized key.
      // (A fronting ShardRouter routes deltas by base_key without touching
      // key(), but a caller may have.)
      request.invalidate_key();
    } catch (...) {
      std::promise<ScheduleResponse> failed;
      Admission admission{Future(failed.get_future()), std::nullopt};
      {
        const MutexLock lock(stats_mutex_);
        ++counters_.submitted;
        if (delta_simulate) ++counters_.simulated;
      }
      finish_one(failed, ScheduleResponse::from_current_exception(), /*fast_path=*/false);
      return admission;
    }
  }
  // Memoizes the key and its hash inside the request (or reuses what a
  // fronting ShardRouter memoized): the cache probe, the shard pick, and the
  // worker's lookup below all reuse this one hash.
  const std::string& key = request.key();
  const std::uint64_t hash = request.key_hash();
  // Every submitted request can serve as a delta base — including a
  // materialized delta, so edit chains resolve link by link.
  remember_base(hash, request.graph);
  const bool simulate = request.sim.has_value();
  std::promise<ScheduleResponse> promise;
  Admission admission{Future(promise.get_future()), std::nullopt};
  {
    const MutexLock lock(stats_mutex_);
    ++counters_.submitted;
    if (simulate) ++counters_.simulated;
  }

  // Fast path: an already-completed result resolves synchronously without a
  // queue round trip. Admission control never refuses a cached answer.
  if (ResultPtr hit = cache_.try_get(hash, key)) {
    finish_one(promise, ScheduleResponse::success(std::move(hit)), /*fast_path=*/true);
    return admission;
  }

  // Shard by cache-key hash: identical scenarios serialize on one worker (in
  // submission order), distinct ones spread across the pool.
  const std::size_t shard_index = hash % shards_.size();
  Shard& shard = *shards_[shard_index];
  try {
    MutexLock lock(shard.mutex);
    // Re-check under the shard lock: a shutdown() racing with this submit
    // may already have drained and joined the workers, and a job pushed now
    // would leave its future forever pending.
    if (stopping_.load(std::memory_order_acquire)) {
      throw std::runtime_error("ScheduleService: submit after shutdown");
    }
    if (queue_depth_ > 0 && shard.queue.size() >= queue_depth_) {
      if (request.admission == AdmissionPolicy::kReject) {
        const std::size_t depth = shard.queue.size();
        lock.unlock();
        {
          const MutexLock stats_lock(stats_mutex_);
          ++counters_.rejected;
        }
        // A rejection settles a submission just like a completion does.
        idle_cv_.notify_all();
        admission.future = Future();
        admission.rejected = Rejected{shard_index, depth, queue_depth_, std::nullopt};
        return admission;
      }
      // Backpressure: wait for a worker to drain an entry (or for shutdown,
      // which must not leave us waiting on a dead pool). An explicit while
      // loop, not a predicate lambda: the guarded queue read must sit in
      // this (annotated) scope for the thread-safety analysis to verify it.
      while (!stopping_.load(std::memory_order_acquire) &&
             shard.queue.size() >= queue_depth_) {
        shard.space_cv.wait(shard.mutex);
      }
      if (stopping_.load(std::memory_order_acquire)) {
        throw std::runtime_error("ScheduleService: submit after shutdown");
      }
    }
    // A positive priority jumps the shard queue (best-effort: it cannot
    // preempt the job a worker already holds).
    if (request.priority > 0) {
      shard.queue.push_front(Job{std::move(request), std::move(promise)});
    } else {
      shard.queue.push_back(Job{std::move(request), std::move(promise)});
    }
    shard.max_depth = std::max(shard.max_depth, shard.queue.size());
  } catch (...) {
    // Nothing was enqueued (shutdown race, or the Job move threw): roll the
    // submission count back so wait_idle can still balance.
    {
      const MutexLock stats_lock(stats_mutex_);
      --counters_.submitted;
      if (simulate) --counters_.simulated;
    }
    // The rollback may have just satisfied a wait_idle that saw the inflated
    // count; without this wakeup (and with the workers gone after shutdown)
    // it would sleep forever.
    idle_cv_.notify_all();
    throw;
  }
  shard.cv.notify_one();
  return admission;
}

ScheduleResult ScheduleService::compute_job(const Job& job) {
  const ScheduleRequest& request = job.request;
  // A whole-graph cache miss of a multi-partition graph still reuses every
  // cached per-partition fragment and schedules only the partitions a delta
  // (or a fresh near-duplicate) actually changed; a one-partition graph is
  // scheduled whole.
  ScheduleResult result =
      schedule_with_subgraph_cache(request.scheduler, request.graph, request.machine,
                                   subgraph_cache_, request.base_key.has_value());
  if (!request.sim) return result;
  if (!result.streaming || !result.buffers) {
    throw std::invalid_argument(
        "ScheduleService: a simulated request requires a streaming scheduler, got " +
        request.scheduler);
  }
  // Rebuild a context around the scheduled artifacts and reuse the pipeline
  // SimulationPass, sharing its deadlock/tick-limit validation and timing
  // capture with the synchronous pipeline path.
  // The result is still worker-local, so the schedule artifacts can be moved
  // through the context and back instead of deep-copied.
  ScheduleContext ctx;
  ctx.graph = &request.graph;
  ctx.machine = request.machine;
  ctx.streaming = std::move(result.streaming);
  ctx.buffers = std::move(result.buffers);
  Pipeline pipeline;
  pipeline.emplace<SimulationPass>(*request.sim);
  pipeline.run(ctx);
  result.streaming = std::move(ctx.streaming);
  result.buffers = std::move(ctx.buffers);
  result.sim = std::move(ctx.sim);
  for (PassTiming& timing : ctx.timings) result.timings.push_back(std::move(timing));
  return result;
}

void ScheduleService::worker_loop(Shard& shard) {
  for (;;) {
    Job job;
    {
      const MutexLock lock(shard.mutex);
      while (!stopping_.load(std::memory_order_acquire) && shard.queue.empty()) {
        shard.cv.wait(shard.mutex);
      }
      if (shard.queue.empty()) return;  // stopping, and fully drained
      job = std::move(shard.queue.front());
      shard.queue.pop_front();
      // The pop opened one queue slot: wake one backpressured submitter.
      if (queue_depth_ > 0) shard.space_cv.notify_one();
    }
    ScheduleResponse response;
    try {
      const std::uint64_t hash = job.request.key_hash();  // before the key moves out
      response = ScheduleResponse::success(cache_.get_or_compute(
          hash, job.request.release_key(), [this, &job] { return compute_job(job); },
          job.request.graph.node_count()));
    } catch (...) {
      response = ScheduleResponse::from_current_exception();
    }
    finish_one(job.promise, std::move(response), /*fast_path=*/false);
  }
}

void ScheduleService::remember_base(std::uint64_t key_hash, const TaskGraph& graph) {
  {
    const MutexLock lock(bases_mutex_);
    // A known hash is just refreshed, sparing the graph copy; a zero capacity
    // would refuse the copy anyway.
    if (bases_.capacity() == 0 || bases_.find(key_hash, key_hash) != nullptr) return;
  }
  // The copy (the node records; the edge table is shared) runs outside the
  // lock every delta's find_base takes.
  auto copy = std::make_shared<const TaskGraph>(graph);
  const MutexLock lock(bases_mutex_);
  // When a concurrent call inserted this hash meanwhile, insert keeps that
  // entry and drops this copy.
  (void)bases_.insert(key_hash, key_hash, std::move(copy), 1);
}

std::shared_ptr<const TaskGraph> ScheduleService::find_base(std::string_view base_key) {
  const std::optional<std::uint64_t> hash = parse_key_digest(base_key);
  if (!hash) return nullptr;
  const MutexLock lock(bases_mutex_);
  const auto* base = bases_.find(*hash, *hash);
  return base != nullptr ? *base : nullptr;
}

void ScheduleService::finish_one(std::promise<ScheduleResponse>& promise,
                                 ScheduleResponse response, bool fast_path) {
  {
    // Count and settle in one hold: whoever sees the future settled reads
    // its completion counted, and wait_idle (which reads the counters under
    // this lock) returns only after the future has settled.
    const MutexLock lock(stats_mutex_);
    ++counters_.completed;
    if (response.status == ScheduleResponse::Status::kError) ++counters_.failed;
    if (fast_path) ++counters_.fast_path_hits;
    promise.set_value(std::move(response));
  }
  idle_cv_.notify_all();
}

void ScheduleService::wait_idle() {
  const MutexLock lock(stats_mutex_);
  while (counters_.completed + counters_.rejected != counters_.submitted) {
    idle_cv_.wait(stats_mutex_);
  }
}

void ScheduleService::shutdown() {
  stopping_.store(true, std::memory_order_release);
  for (const auto& shard : shards_) {
    // Acquire/release each shard mutex so a worker (or a backpressured
    // submitter) between its wait-loop condition check and cv wait cannot
    // miss the stop signal.
    const MutexLock lock(shard->mutex);
  }
  for (const auto& shard : shards_) {
    shard->cv.notify_all();
    shard->space_cv.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ScheduleService::Stats ScheduleService::stats() const {
  Stats out;
  {
    const MutexLock lock(stats_mutex_);
    out = counters_;
  }
  out.shard_max_depth.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mutex);
    out.shard_max_depth.push_back(shard->max_depth);
  }
  out.cache = cache_.stats();
  out.subgraph = subgraph_cache_.stats();
  out.canon = subgraph_cache_.canon_memo().stats();
  return out;
}

double ScheduleService::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
}

std::string ScheduleService::stats_json() const {
  return render_stats_json(stats(), worker_count(), queue_depth_, cache_.size(),
                           cache_.total_weight(), cache_.capacity(), uptime_seconds());
}

ScheduleService::Snapshot ScheduleService::stats_snapshot() const {
  Snapshot snapshot;
  snapshot.stats = stats();
  snapshot.cache_weight = cache_.total_weight();
  snapshot.json = render_stats_json(snapshot.stats, worker_count(), queue_depth_, cache_.size(),
                                    snapshot.cache_weight, cache_.capacity(), uptime_seconds());
  return snapshot;
}

std::string ScheduleService::render_stats_json(const Stats& s, std::size_t workers,
                                               std::size_t queue_depth_limit,
                                               std::size_t cache_size, std::size_t cache_weight,
                                               std::size_t cache_capacity, double uptime) {
  const auto field = [](const char* key, std::uint64_t value) {
    return std::string(", \"") + key + "\": " + std::to_string(value);
  };
  std::string json = "{\"schema_version\": " + std::to_string(kStatsSchemaVersion);
  json += ", \"uptime_seconds\": ";
  append_number(json, uptime < 0 ? 0.0 : uptime);
  append_stats_counters(json, s);
  json += field("workers", workers);
  json += field("queue_depth_limit", queue_depth_limit);
  std::size_t peak = 0;
  json += ", \"shard_max_depth\": [";
  for (std::size_t i = 0; i < s.shard_max_depth.size(); ++i) {
    if (i > 0) json += ", ";
    json += std::to_string(s.shard_max_depth[i]);
    peak = std::max(peak, s.shard_max_depth[i]);
  }
  json += "]";
  json += field("max_queue_depth", peak);
  json += field("cache_size", cache_size);
  json += field("cache_weight", cache_weight);
  json += field("cache_capacity", cache_capacity);
  json += "}";
  return json;
}

}  // namespace sts
