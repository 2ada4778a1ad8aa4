#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "pipeline/scheduler.hpp"

namespace sts {

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

/// A settled scheduling computation, carried across threads as a plain
/// value: every backend settles its futures with it. At most one
/// of `result` (success), `error` (failure detail) or `rejected` (a typed
/// admission refusal that arrived asynchronously, as from a remote server) is
/// populated.
///
/// Errors cross threads as strings, never as a stored `exception_ptr`:
/// libstdc++ refcounts exception objects inside uninstrumented runtime code,
/// so ThreadSanitizer cannot order a cross-thread rethrow against the
/// thrower and reports a false data race. `result_or_throw()` rebuilds the
/// exception on the consuming thread instead.
struct Settled {
  std::shared_ptr<const ScheduleResult> result;
  std::string error;     ///< non-empty iff the computation failed
  bool invalid = false;  ///< failure maps to std::invalid_argument
  std::optional<Rejected> rejected;

  /// Folds the exception in flight into a failure value. Call only from
  /// inside a catch block, on the thread that caught it.
  [[nodiscard]] static Settled from_current_exception();

  /// The result, or the failure thrown on the calling thread: a rejection as
  /// std::runtime_error naming the shard, an error as std::invalid_argument
  /// when `invalid` and std::runtime_error otherwise.
  [[nodiscard]] std::shared_ptr<const ScheduleResult> result_or_throw() const;
};

}  // namespace sts
