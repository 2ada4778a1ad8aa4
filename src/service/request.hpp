#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph_edit.hpp"
#include "graph/task_graph.hpp"
#include "pipeline/schedule_context.hpp"
#include "pipeline/scheduler.hpp"
#include "sim/dataflow_sim.hpp"

namespace sts {

/// Version of the ScheduleRequest envelope (and of the cache-key space it
/// spans). Bump it when scheduler implementations change observably: the
/// version is the first line of every request key, so stale cached results
/// from an older schema can never be served for a newer one.
///
/// v2: the partitioners became component-sequential with canonical-rank
/// tie-breaking (blocks never mix connected partitions), which can change
/// block assignments for multi-component or tie-heavy graphs; the envelope
/// gained `base_key` + `edits` (incremental delta rescheduling).
inline constexpr int kScheduleSchemaVersion = 2;

/// What a service should do with a request that lands on a full shard:
/// apply backpressure (block the submitter until space frees up) or refuse
/// admission with a typed `Rejected` outcome.
enum class AdmissionPolicy : std::uint8_t { kBlock, kReject };

[[nodiscard]] const char* to_string(AdmissionPolicy policy) noexcept;

/// Reference to a synthetic workload generator instead of an inline graph:
/// `make_<generator>(param, seed)` from workloads/synthetic.hpp. Keeps sweep
/// scenario files compact and self-describing; the graph is materialized at
/// parse time, so a ref-born request is indistinguishable (same `key()`)
/// from one carrying the equivalent inline graph.
struct GraphRef {
  std::string generator;  ///< chain | fft | gaussian | cholesky
  std::int64_t param = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] std::string label() const;  ///< "fft 16 7" display form
};

/// The one serving envelope: everything a scheduling query is, as a value.
///
/// Bundles the graph (inline spec or generator ref), scheduler name, machine
/// config, optional simulation chaining, and delivery hints (admission
/// policy, priority, label). Serializes to one JSON object and parses back
/// losslessly: a request round-tripped through JSON has the same `key()` —
/// and therefore hits the same cache entry — as the in-memory original.
///
/// JSON shape (defaults may be omitted; unknown members are rejected):
///
///     {"schema_version": 2, "scheduler": "streaming-rlx",
///      "machine": {"pes": 8, "fifo": 2, "mesh": false, "pe_speed": []},
///      "graph": {"nodes": [...], "edges": [...]},      // or
///      "graph": {"generator": "fft", "param": 16, "seed": 7},    // or
///      "base_key": "f06b75c22ef6b297",
///      "edits": [{"op": "set_edge_volume", "src": 1, "dst": 2, "volume": 8}],
///      "sim": {"engine": "bulk", "max_ticks": 50000000, "trace": false},
///      "admission": "block", "priority": 0, "label": "warmup"}
///
/// A delta request carries `base_key` (the key_digest() of a previously
/// submitted request) plus an `edits` list instead of a graph; the service
/// materializes the edited graph from its base-request registry at
/// submission, so downstream (key, cache, scheduling) a delta is
/// indistinguishable from the equivalent whole-graph request.
struct ScheduleRequest {
  int schema_version = kScheduleSchemaVersion;
  TaskGraph graph;
  /// Set when the graph came from (or should serialize as) a generator
  /// reference; `graph` always holds the materialized graph either way.
  std::optional<GraphRef> graph_ref;
  /// Delta rescheduling: key_digest() of the base request whose graph the
  /// `edits` apply to. When set, `graph` stays empty until the service
  /// materializes it (JSON serialization then carries base_key + edits, not
  /// the graph). A ShardRouter routes delta requests by this digest — the
  /// same hash the base request was routed by — so they land where the
  /// base's partition fragments are warm.
  std::optional<std::string> base_key;
  /// Edit list applied (in order) to the base graph; meaningful only with
  /// `base_key`.
  std::vector<GraphEdit> edits;
  std::string scheduler = "streaming-rlx";
  MachineConfig machine;
  /// Present = chain a SimulationPass after scheduling (the worker-side
  /// equivalent of schedule + simulate_streaming); the options extend the
  /// cache key so simulated and plain results never collide.
  std::optional<SimOptions> sim;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Best-effort queue-jump: a positive priority enqueues at the front of
  /// its shard instead of the back. Not part of the request identity.
  std::int32_t priority = 0;
  /// Free-form display tag for sweep outputs. Not part of the identity.
  std::string label;

  /// Canonical cache/routing key: schema version, scheduler, machine config,
  /// the graph's canonical_fingerprint, and the sim options when present.
  /// Delivery hints (admission, priority, label) and the generator ref are
  /// excluded — identity is the scenario, not how it is delivered. Built in
  /// one buffer and memoized on first call together with key_hash(): treat
  /// the request as immutable afterwards. Copies drop the memo (a copy is
  /// usually made to be edited); moves keep it.
  [[nodiscard]] const std::string& key() const;

  /// fnv1a64(key()), computed once beside the key memo. The one hash every
  /// serving layer uses for this request: ShardRouter routing, the
  /// service's shard pick, and ScheduleCache's probes — so a 10^5-node
  /// request's multi-megabyte key is hashed once, not once per layer.
  /// Computes key() first if needed; dropped with the key memo.
  [[nodiscard]] std::uint64_t key_hash() const;

  /// Moves the (possibly multi-megabyte) key out of the memo, computing it
  /// first if needed — the service worker hands it to the cache without
  /// re-copying. The memo is left empty; a later key() (or key_hash())
  /// recomputes, so read key_hash() before releasing.
  [[nodiscard]] std::string release_key();

  /// key_hash() as 16 lowercase hex digits: the compact request identity
  /// delta requests name in `base_key`. A ShardRouter routes a delta by
  /// reading this digest back into the hash (parse_key_digest), so it lands
  /// where its base request was routed. Costs no pass over the key once
  /// key() is memoized.
  [[nodiscard]] std::string key_digest() const;

  /// Drops the key() memo. Must be called after mutating any key-relevant
  /// field in place (the service does this when it materializes a delta
  /// request's graph) — a stale memo would serve the wrong identity.
  void invalidate_key() noexcept { key_.value.clear(); }

  /// One-line JSON rendering of the envelope (the sweep scenario-file
  /// format). Omits members that hold their default value.
  [[nodiscard]] std::string to_json() const;

  /// Strict parse of `to_json()`-shaped text. Throws std::invalid_argument
  /// on malformed JSON, unknown members, missing scheduler/graph, an
  /// unsupported schema_version, or an invalid generator reference.
  [[nodiscard]] static ScheduleRequest from_json(std::string_view text);

 private:
  /// Memo slot for key() that empties itself on copy: the fields of a copied
  /// request can diverge from the original, so a copied memo would serve a
  /// stale identity. Moves transfer the memo (the source is relinquished).
  struct MemoizedKey {
    MemoizedKey() = default;
    MemoizedKey(const MemoizedKey&) noexcept {}
    MemoizedKey& operator=(const MemoizedKey&) noexcept {
      value.clear();
      return *this;
    }
    MemoizedKey(MemoizedKey&&) noexcept = default;
    MemoizedKey& operator=(MemoizedKey&&) noexcept = default;

    std::string value;
    std::uint64_t hash = 0;  ///< fnv1a64(value); meaningful iff value is set
  };
  mutable MemoizedKey key_;  ///< memoized by key()
};

/// The key_hash() a ScheduleRequest::key_digest() was written from, or
/// nullopt unless `digest` is exactly 16 lowercase hex digits.
[[nodiscard]] std::optional<std::uint64_t> parse_key_digest(std::string_view digest);

/// Typed refusal of a request on a full shard.
struct Rejected {
  std::size_t shard = 0;  ///< index of the full shard inside its service
  std::size_t depth = 0;  ///< queue depth observed at rejection
  std::size_t limit = 0;  ///< the configured per-shard depth limit
  /// Routing backend index; set only when a ShardRouter forwarded the
  /// request (absent for a standalone service, so backend 0 and "no router"
  /// stay distinguishable).
  std::optional<std::size_t> backend;
};

/// The one outcome of a submitted request, from the thread that settles its
/// future to the caller and across the wire: exactly one of a shared
/// immutable result, a typed admission refusal, or an error detail (the
/// message of the exception the computation failed with). Every backend
/// settles its futures with it.
///
/// Errors cross threads as strings, never as a stored `exception_ptr`:
/// libstdc++ refcounts exception objects inside uninstrumented runtime code,
/// so ThreadSanitizer cannot order a cross-thread rethrow against the
/// thrower and reports a false data race. `result_or_throw()` rebuilds the
/// exception on the consuming thread instead.
struct ScheduleResponse {
  enum class Status : std::uint8_t { kOk, kRejected, kError };

  Status status = Status::kError;
  std::shared_ptr<const ScheduleResult> result;  ///< kOk
  std::optional<Rejected> rejected;              ///< kRejected
  std::string error;                             ///< kError
  /// kError: the request itself was bad (unknown scheduler or base_key,
  /// invalid graph, malformed envelope), so the failure rethrows as
  /// std::invalid_argument instead of std::runtime_error.
  bool invalid = false;

  [[nodiscard]] static ScheduleResponse success(std::shared_ptr<const ScheduleResult> result) {
    return {Status::kOk, std::move(result), std::nullopt, {}, false};
  }
  [[nodiscard]] static ScheduleResponse refusal(Rejected rejected) {
    return {Status::kRejected, nullptr, std::move(rejected), {}, false};
  }
  [[nodiscard]] static ScheduleResponse failure(std::string error, bool invalid = false) {
    return {Status::kError, nullptr, std::nullopt, std::move(error), invalid};
  }

  /// Folds the exception in flight into a failure, `invalid` iff it is a
  /// std::invalid_argument. Call only from inside a catch block.
  [[nodiscard]] static ScheduleResponse from_current_exception();

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }

  /// The result, or the failure thrown on the calling thread: a rejection as
  /// std::runtime_error naming the shard, an error as std::invalid_argument
  /// when `invalid` and std::runtime_error otherwise.
  [[nodiscard]] std::shared_ptr<const ScheduleResult> result_or_throw() const;

  /// Flat JSON summary (status, makespan/speedup/fifo_capacity and sim
  /// fields when ok; shard/depth/limit/backend when rejected; the error
  /// string, plus `"invalid": true` for a bad request, otherwise) — the
  /// per-scenario record the sweep CLI emits, and the body of a
  /// `POST /v1/schedule` reply.
  [[nodiscard]] std::string to_json() const;

  /// Strict parse of `to_json()`-shaped text — how a RemoteBackend decodes a
  /// server reply. Throws std::invalid_argument on malformed JSON, an
  /// unknown status, or missing/mistyped members for that status. The wire
  /// carries only the flat summary, so an ok response reconstructs a
  /// summary-only ScheduleResult: scheduler, makespan, speedup,
  /// fifo_capacity, and the sim summary — never the schedule artifacts
  /// (streaming/buffers/list), which stay in the serving process.
  [[nodiscard]] static ScheduleResponse from_json(std::string_view text);
};

[[nodiscard]] const char* to_string(ScheduleResponse::Status status) noexcept;

}  // namespace sts
