#include "pipeline/settled.hpp"

#include <exception>
#include <stdexcept>

namespace sts {

Settled Settled::from_current_exception() {
  Settled settled;
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    settled.error = e.what();
    settled.invalid = true;
  } catch (const std::exception& e) {
    settled.error = e.what();
  } catch (...) {
    settled.error = "unknown error";
  }
  // A failure must read as one downstream even if what() was empty.
  if (settled.error.empty()) settled.error = "unknown error";
  return settled;
}

std::shared_ptr<const ScheduleResult> Settled::result_or_throw() const {
  if (rejected.has_value()) {
    throw std::runtime_error("schedule request rejected on shard " +
                             std::to_string(rejected->shard) + " (depth " +
                             std::to_string(rejected->depth) + "/" +
                             std::to_string(rejected->limit) + ")");
  }
  if (error.empty()) return result;
  if (invalid) throw std::invalid_argument(error);
  throw std::runtime_error(error);
}

}  // namespace sts
