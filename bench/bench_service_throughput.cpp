// Throughput bench + acceptance gates for the concurrent ScheduleService and
// the consistent-hash ShardRouter on paper_topologies sweeps (topology x
// PE-count x seed — the shape of the paper's Section 7 evaluation, run as
// one batch). Every submission is a ScheduleRequest envelope through
// `submit(ScheduleRequest)` — the one serving path.
//
//   1. scaling:  cold sweep wall-clock with a 1-worker service vs a 4-worker
//      service vs a ShardRouter over 4 single-worker backends; gate >= 3x
//      throughput for BOTH 4-way configurations (enforced when the host
//      actually has >= 4 hardware threads — on smaller hosts the ratios are
//      reported but cannot gate, and the correctness gates below still must
//      pass).
//   2. dedup:    every scenario submitted kDuplicates times; key sharding
//      must keep cache misses == unique scenarios (duplicate submissions do
//      not multiply schedule computations) with no cache race.
//   3. bounded:  a service whose size-aware cache capacity (total weight =
//      graph node count) is far below the sweep's total weight must end with
//      total_weight() <= capacity and positive eviction counts/weight.
//   4. backpressure: a single-worker service with a small per-shard queue
//      depth flooded through AdmissionPolicy::kReject requests; rejections
//      must occur (the flood outpaces one worker), every rejection must
//      report depth == the configured limit (admission is refused only when
//      the target shard is actually full), the queue high-water mark must
//      respect the limit, and submitted == completed + rejected must balance
//      after the drain.
//
// STS_BENCH_GRAPHS overrides seeds per configuration (CI smoke uses 2).

#include <cstdint>
#include <cstdlib>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "service/request.hpp"
#include "service/schedule_service.hpp"
#include "service/shard_router.hpp"
#include "support/table.hpp"

namespace {

constexpr int kDuplicates = 4;

struct Scenario {
  std::string label;
  sts::TaskGraph graph;
  std::int64_t pes;
};

std::vector<Scenario> build_scenarios(int seeds_per_config) {
  std::vector<Scenario> scenarios;
  for (const sts::bench::Topology& topo : sts::bench::paper_topologies()) {
    for (int seed = 0; seed < seeds_per_config; ++seed) {
      const sts::TaskGraph graph = topo.make(static_cast<std::uint64_t>(seed) + 1);
      for (const std::int64_t pes : topo.pe_sweep) {
        scenarios.push_back({topo.name + "/" + std::to_string(pes) + "/" + std::to_string(seed),
                             graph, pes});
      }
    }
  }
  return scenarios;
}

sts::ScheduleRequest make_request(const Scenario& s,
                                  sts::AdmissionPolicy admission = sts::AdmissionPolicy::kBlock) {
  sts::ScheduleRequest request;
  request.graph = s.graph;
  request.scheduler = "streaming-rlx";
  request.machine.num_pes = s.pes;
  request.admission = admission;
  request.label = s.label;
  return request;
}

/// Submits every scenario `copies` times through `submit` and waits on every
/// future; the returned wall time covers submission through completion.
template <typename SubmitFn>
double run_sweep(SubmitFn&& submit, const std::vector<Scenario>& scenarios, int copies) {
  const sts::bench::Stopwatch clock;
  std::vector<sts::ScheduleService::Future> futures;
  futures.reserve(scenarios.size() * static_cast<std::size_t>(copies));
  for (int copy = 0; copy < copies; ++copy) {
    for (const Scenario& s : scenarios) {
      futures.push_back(submit(make_request(s)).future);
    }
  }
  for (auto& f : futures) {
    if (f.get()->makespan <= 0) throw std::runtime_error("scenario produced empty schedule");
  }
  return clock.seconds();
}

}  // namespace

int main() {
  using namespace sts;
  using namespace sts::bench;

  const int seeds = graphs_per_config();
  const std::vector<Scenario> scenarios = build_scenarios(seeds);
  const std::size_t unique = scenarios.size();
  const unsigned cores = std::thread::hardware_concurrency();

  std::cout << "Service throughput: paper_topologies sweep, " << unique
            << " unique scenarios (" << seeds << " seeds/config), scheduler = streaming-rlx, "
            << cores << " hardware threads\n\n";

  BenchReport report("service_throughput");
  report.add("scenarios", static_cast<std::int64_t>(unique));
  report.add("hardware_threads", static_cast<std::int64_t>(cores));

  // 1. Cold sweep scaling: 1 worker vs 4 workers vs a router over 4
  // single-worker backends, distinct caches throughout. The scaling phase
  // gets a floor of 16 seeds regardless of smoke mode — a handful of
  // sub-millisecond jobs is all noise, not a throughput signal.
  const std::vector<Scenario> scaling_scenarios =
      seeds >= 16 ? scenarios : build_scenarios(16);
  ServiceConfig one;
  one.num_workers = 1;
  double t1 = 0.0;
  {
    ScheduleService service(one);
    t1 = run_sweep([&](ScheduleRequest r) { return service.submit(std::move(r)); },
                   scaling_scenarios, 1);
  }
  ServiceConfig four;
  four.num_workers = 4;
  double t4 = 0.0;
  {
    ScheduleService service(four);
    t4 = run_sweep([&](ScheduleRequest r) { return service.submit(std::move(r)); },
                   scaling_scenarios, 1);
  }
  // The router seam must not cost the parallelism it exists to distribute:
  // 4 backends x 1 worker behind the consistent-hash ring, one front door.
  RouterConfig router_config;
  router_config.num_backends = 4;
  router_config.backend = one;
  double t_router = 0.0;
  {
    ShardRouter router(router_config);
    t_router = run_sweep([&](ScheduleRequest r) { return router.submit(std::move(r)); },
                         scaling_scenarios, 1);
  }
  const double scaling = t1 / t4;
  const double router_scaling = t1 / t_router;

  // 2. Dedup by key sharding: kDuplicates copies of every scenario shard
  // onto one worker each, so the pipeline must run exactly `unique` times
  // and every duplicate must be a plain cache hit, never a race.
  ScheduleService dedup_service(four);
  const double t_dedup =
      run_sweep([&](ScheduleRequest r) { return dedup_service.submit(std::move(r)); },
                scenarios, kDuplicates);
  const ScheduleService::Stats dedup_stats = dedup_service.stats();
  const bool dedup_ok = dedup_stats.cache.misses == unique &&
                        dedup_stats.cache.hits == unique * (kDuplicates - 1) &&
                        dedup_stats.cache.races == 0 && dedup_stats.failed == 0;

  // 3. Bounded memory, size-aware: capacity (total weight) far below the
  // sweep's total node weight must evict, not grow.
  std::size_t sweep_weight = 0;
  for (const Scenario& s : scenarios) sweep_weight += s.graph.node_count();
  ServiceConfig bounded_config = four;
  bounded_config.cache_capacity = sweep_weight >= 16 ? sweep_weight / 4 : 4;
  ScheduleService bounded_service(bounded_config);
  (void)run_sweep([&](ScheduleRequest r) { return bounded_service.submit(std::move(r)); },
                  scenarios, 1);
  const std::size_t bounded_weight = bounded_service.cache().total_weight();
  const ScheduleCache::Stats bounded_cache = bounded_service.stats().cache;
  const bool bounded_ok = bounded_weight <= bounded_config.cache_capacity &&
                          bounded_cache.evictions > 0 && bounded_cache.evicted_weight > 0;

  // 4. Backpressure: flood one worker with kReject envelopes and a tiny
  // queue bound. Scheduling costs milliseconds while admission costs
  // microseconds, so the shard saturates and sheds load; every refusal must
  // carry an accurate depth and the queue must never exceed its bound.
  constexpr std::size_t kQueueDepth = 4;
  ServiceConfig bp_config;
  bp_config.num_workers = 1;
  bp_config.queue_depth = kQueueDepth;
  ScheduleService bp_service(bp_config);
  const Stopwatch bp_clock;
  std::vector<ScheduleService::Future> bp_futures;
  std::uint64_t bp_rejections = 0;
  bool bp_depths_accurate = true;
  for (const Scenario& s : scenarios) {
    ScheduleService::Admission admission =
        bp_service.submit(make_request(s, AdmissionPolicy::kReject));
    if (admission.accepted()) {
      bp_futures.push_back(std::move(admission.future));
    } else {
      ++bp_rejections;
      bp_depths_accurate = bp_depths_accurate && admission.rejected->depth == kQueueDepth &&
                           admission.rejected->limit == kQueueDepth &&
                           admission.rejected->shard == 0;
    }
  }
  for (auto& f : bp_futures) {
    if (f.get()->makespan <= 0) throw std::runtime_error("accepted job produced empty schedule");
  }
  bp_service.wait_idle();
  const double t_bp = bp_clock.seconds();
  const ScheduleService::Stats bp_stats = bp_service.stats();
  const std::size_t bp_peak_depth =
      bp_stats.shard_max_depth.empty() ? 0 : bp_stats.shard_max_depth.front();
  const bool bp_ok = bp_rejections > 0 && bp_depths_accurate &&
                     bp_stats.rejected == bp_rejections && bp_peak_depth <= kQueueDepth &&
                     bp_stats.submitted == bp_stats.completed + bp_stats.rejected;

  Table table({"phase", "workers", "jobs", "seconds", "jobs/s"});
  const auto row = [&](const char* phase, std::size_t workers, std::size_t jobs, double sec) {
    table.add_row({phase, std::to_string(workers), std::to_string(jobs), fmt(sec, 3),
                   fmt(jobs / sec, 0)});
  };
  row("cold", 1, scaling_scenarios.size(), t1);
  row("cold", 4, scaling_scenarios.size(), t4);
  row("cold router 4x1", 4, scaling_scenarios.size(), t_router);
  row("dedup x4", 4, unique * kDuplicates, t_dedup);
  row("backpressure", 1, unique, t_bp);
  table.print(std::cout);
  std::cout << "\nscaling 4w/1w: " << fmt(scaling, 2) << "x\n"
            << "scaling router(4x1)/1w: " << fmt(router_scaling, 2) << "x\n"
            << "dedup: " << dedup_stats.cache.misses << " schedules computed for "
            << unique * kDuplicates << " submissions (" << dedup_stats.cache.hits << " hits, "
            << dedup_stats.cache.races << " races) -> " << (dedup_ok ? "OK" : "FAIL") << "\n"
            << "bounded: weight " << bounded_weight << " <= capacity "
            << bounded_config.cache_capacity << ", " << bounded_cache.evictions
            << " evictions (weight " << bounded_cache.evicted_weight << ") -> "
            << (bounded_ok ? "OK" : "FAIL") << "\n"
            << "backpressure: " << bp_rejections << " of " << unique
            << " refused at depth " << kQueueDepth << " (peak depth " << bp_peak_depth
            << ", depths accurate: " << (bp_depths_accurate ? "yes" : "no") << ") -> "
            << (bp_ok ? "OK" : "FAIL") << "\n";

  // STS_SCALING_MIN overrides the 3x bar: shared CI runners advertise 4
  // vCPUs that are really 2 SMT cores plus noisy neighbors, where 3x is
  // physically out of reach; real 4-core hosts keep the full gate.
  double scaling_min = 3.0;
  if (const char* env = std::getenv("STS_SCALING_MIN")) {
    const double v = std::atof(env);
    if (v > 0) scaling_min = v;
  }
  const bool enforce_scaling = cores >= 4;
  const bool scaling_ok = scaling >= scaling_min && router_scaling >= scaling_min;
  bool pass = dedup_ok && bounded_ok && bp_ok;
  if (enforce_scaling) {
    pass = pass && scaling_ok;
    std::cout << "Expected: >= " << fmt(scaling_min, 1)
              << "x throughput at 4 workers vs 1, direct and through the router\n";
  } else {
    std::cout << "NOTE: only " << cores << " hardware threads; the >= 3x scaling gates need 4 "
              << "and are reported but not enforced on this host\n";
  }
  std::cout << (pass ? "RESULT: PASS" : "RESULT: BELOW TARGET") << "\n";

  report.add("scaling_scenarios", static_cast<std::int64_t>(scaling_scenarios.size()));
  report.add("cold_seconds_1w", t1);
  report.add("cold_seconds_4w", t4);
  report.add("cold_seconds_router_4x1", t_router);
  report.add("qps_1w", scaling_scenarios.size() / t1);
  report.add("qps_4w", scaling_scenarios.size() / t4);
  report.add("qps_router_4x1", scaling_scenarios.size() / t_router);
  report.add("scaling_4w_over_1w", scaling);
  report.add("scaling_router_over_1w", router_scaling);
  report.add("scaling_min", scaling_min);
  report.add("scaling_gate_enforced", std::string(enforce_scaling ? "yes" : "no"));
  report.add("dedup_submissions", static_cast<std::int64_t>(unique * kDuplicates));
  report.add("dedup_schedules_computed", static_cast<std::int64_t>(dedup_stats.cache.misses));
  report.add("dedup_ok", std::string(dedup_ok ? "yes" : "no"));
  report.add("bounded_capacity", static_cast<std::int64_t>(bounded_config.cache_capacity));
  report.add("bounded_weight", static_cast<std::int64_t>(bounded_weight));
  report.add("bounded_evictions", static_cast<std::int64_t>(bounded_cache.evictions));
  report.add("bounded_evicted_weight",
             static_cast<std::int64_t>(bounded_cache.evicted_weight));
  report.add("bounded_ok", std::string(bounded_ok ? "yes" : "no"));
  report.add("backpressure_queue_depth", static_cast<std::int64_t>(kQueueDepth));
  report.add("backpressure_rejections", static_cast<std::int64_t>(bp_rejections));
  report.add("backpressure_peak_depth", static_cast<std::int64_t>(bp_peak_depth));
  report.add("backpressure_depths_accurate", std::string(bp_depths_accurate ? "yes" : "no"));
  report.add("backpressure_seconds", t_bp);
  report.add("backpressure_ok", std::string(bp_ok ? "yes" : "no"));
  report.add("gate", std::string(pass ? "pass" : "fail"));
  report.write();
  return pass ? 0 : 1;
}
