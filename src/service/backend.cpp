#include "service/backend.hpp"

#include <stdexcept>
#include <utility>

#include "support/json.hpp"

namespace sts {

// Every byte of ServiceStats but shard_max_depth is a listed counter, so a
// member added to it, or to one of the Stats structs it nests, without a
// line in for_each_stats_counter fails the build here.
static_assert(
    [] {
      ServiceStats stats;
      std::size_t listed = 0;
      for_each_stats_counter([&listed](const char*, std::uint64_t&) { ++listed; }, stats);
      return listed * sizeof(std::uint64_t);
    }() == sizeof(ServiceStats) - sizeof(ServiceStats::shard_max_depth),
    "a ServiceStats counter is missing from for_each_stats_counter");

void append_stats_counters(std::string& json, const ServiceStats& stats) {
  for_each_stats_counter(
      [&json](const char* name, std::uint64_t value) {
        json += ", \"";
        json += name;
        json += "\": ";
        json += std::to_string(value);
      },
      stats);
}

void accumulate_service_stats(ServiceStats& into, const ServiceStats& from) {
  for_each_stats_counter([](const char*, std::uint64_t& sum, std::uint64_t add) { sum += add; },
                         into, from);
  into.shard_max_depth.insert(into.shard_max_depth.end(), from.shard_max_depth.begin(),
                              from.shard_max_depth.end());
}

ServiceStats service_stats_from_json(const JsonValue& json) {
  ServiceStats stats;
  for_each_stats_counter(
      [&json](const char* name, std::uint64_t& counter) {
        const JsonValue* value = json.find(name);
        if (value == nullptr) return;  // older server: counter not born yet
        const std::int64_t v = value->as_int();
        if (v < 0) throw std::invalid_argument(std::string("stats: negative counter ") + name);
        counter = static_cast<std::uint64_t>(v);
      },
      stats);
  if (const JsonValue* depths = json.find("shard_max_depth")) {
    stats.shard_max_depth.reserve(depths->items().size());
    for (const JsonValue& depth : depths->items()) {
      const std::int64_t d = depth.as_int();
      if (d < 0) throw std::invalid_argument("stats: negative shard_max_depth entry");
      stats.shard_max_depth.push_back(static_cast<std::size_t>(d));
    }
  }
  return stats;
}

ScheduleResponse ScheduleBackend::schedule(ScheduleRequest request) {
  return submit(std::move(request)).wait();
}

}  // namespace sts
