#pragma once

#include <cstdint>

#include "pipeline/scheduler.hpp"

namespace sts {

/// Order-sensitive 64-bit digest (FNV-1a over a canonical byte rendering) of
/// every result-bearing field of a ScheduleResult: the scheduler name, the
/// partition/timing/block vectors of a streaming schedule, the buffer plan,
/// the list schedule, CSDF analysis, placement, simulation outcome, metrics,
/// and the makespan. Wall-clock pass timings are deliberately excluded —
/// they are the only fields allowed to differ between two runs of the same
/// scenario.
///
/// This is the equality oracle of the differential tests: two results
/// fingerprint identically iff every schedule decision, every ST/FO/LO
/// value, and every FIFO capacity match bit-for-bit, so an assembled or
/// delta result compares against a cold run with one integer comparison.
[[nodiscard]] std::uint64_t result_fingerprint(const ScheduleResult& result);

}  // namespace sts
