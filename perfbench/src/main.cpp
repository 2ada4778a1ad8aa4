// perfbench: runs one named workload against the scheduling stack's public
// API and prints one JSON object on stdout (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--trace-out PATH]
//
// Every round builds a fresh deployment (timed: set-up), runs an untimed
// warm-up, then replays the round's seeded request sequence (timed). With
// --trace 1 the untraced rounds are followed by traced rounds whose spans are
// written to --trace-out; end-to-end metrics always come from the untraced
// rounds.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "support/text.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kFirstWarmupRepeats = 8;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S [--trace 0|1]"
               " [--trace-out PATH]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value != "0";
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  if (options.trace && options.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return options;
}

/// Linear-interpolated quantile of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

void append_metric(std::string& out, const char* name, double value, const char* unit) {
  if (out.back() != '{') out += ", ";
  out += "\"";
  out += name;
  out += "\": {\"value\": ";
  sts::append_number(out, value);
  out += ", \"unit\": \"";
  out += unit;
  out += "\"}";
}

void write_trace(const Options& options, const std::vector<TraceBuffer>& buffers,
                 const Report& report, double untraced_rps, double traced_rps) {
  std::ofstream out(options.trace_out);
  if (!out) throw std::runtime_error("cannot write " + options.trace_out);
  std::string line = "{\"type\": \"run\", \"workload\": \"" + options.workload +
                     "\", \"seed\": " + std::to_string(options.seed) +
                     ", \"untraced_rps\": ";
  sts::append_number(line, untraced_rps);
  line += ", \"traced_rps\": ";
  sts::append_number(line, traced_rps);
  line += ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : report.counters) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": ";
    sts::append_number(line, value);
  }
  line += "}}\n";
  out << line;
  // One compact array per span: [name, thread, index, parent, request,
  // start_ns, end_ns].
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "[\"" << s.name << "\", " << t << ", " << i << ", " << s.parent << ", "
          << s.request << ", " << s.start_ns << ", " << s.end_ns << "]\n";
    }
  }
  if (!out.good()) throw std::runtime_error("short write to " + options.trace_out);
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  const int clients = workload->clients();
  const std::size_t rounds = workload->rounds(options.seconds);
  const std::size_t traced_rounds = options.trace ? std::max<std::size_t>(1, rounds / 4) : 0;
  const std::size_t per_round = workload->requests_per_round();
  const std::size_t warm_count = workload->warmup_requests();

  Report report;
  std::vector<TraceBuffer> buffers(static_cast<std::size_t>(clients));
  std::vector<double> latency(per_round);
  for (std::size_t round = 0; round < rounds + traced_rounds; ++round) {
    const bool traced = round >= rounds;
    const Clock::time_point setup_start = Clock::now();
    workload->setup();
    report.setup_s.push_back(seconds_between(setup_start, Clock::now()));
    if (traced) workload->prepare_trace();
    // The first round also brings the host out of idle: its warm-up replays
    // the warm-up sequence several times.
    const std::size_t warm_total = round == 0 ? kFirstWarmupRepeats * warm_count : warm_count;
    run_clients(warm_total, clients,
                [&](std::size_t i, int) { workload->warm(i % warm_count); });

    workload->begin_timed();
    const std::size_t first_id = round * per_round;
    const Clock::time_point start = Clock::now();
    run_clients(per_round, clients, [&](std::size_t i, int client) {
      TraceBuffer* buffer = traced ? &buffers[static_cast<std::size_t>(client)] : nullptr;
      ScopedSpan root(buffer, "request", static_cast<std::int64_t>(first_id + i));
      latency[i] = workload->request(i, client, buffer);
    });
    const double wall = seconds_between(start, Clock::now());
    workload->end_timed(!traced);
    report.attempted += per_round;
    if (traced) {
      report.traced_seconds += wall;
      report.traced_requests += per_round;
    } else {
      report.round_seconds.push_back(wall);
      report.latency_s.insert(report.latency_s.end(), latency.begin(), latency.end());
    }
    workload->end_round(report);
    // Hand the torn-down deployment's memory back, so every round's peak
    // starts from the same footprint.
    malloc_trim(0);
  }
  // Serving footprint: read before finish(), whose oracle allocates.
  const double peak_rss = peak_rss_mb() + report.child_peak_rss_mb;
  workload->finish(report);

  // Medians over rounds damp a host that stalls or runs slow for a few
  // seconds: throughput and each latency percentile are the median of the
  // rounds' own values.
  const std::vector<double>& walls = report.round_seconds;
  std::vector<double> rates;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  for (std::size_t r = 0; r < walls.size(); ++r) {
    rates.push_back(static_cast<double>(per_round) / walls[r]);
    const auto begin = report.latency_s.begin() + static_cast<std::ptrdiff_t>(r * per_round);
    std::vector<double> sorted(begin, begin + static_cast<std::ptrdiff_t>(per_round));
    std::sort(sorted.begin(), sorted.end());
    p50.push_back(quantile(sorted, 0.50));
    p90.push_back(quantile(sorted, 0.90));
    p99.push_back(quantile(sorted, 0.99));
  }
  const double throughput = median(rates);

  // Within-run steadiness guard: second-half over first-half throughput of
  // the untraced rounds (there are at least two).
  const auto half = static_cast<std::ptrdiff_t>(walls.size() / 2);
  const double first_mean = std::accumulate(walls.begin(), walls.begin() + half, 0.0) /
                            static_cast<double>(half);
  const double second_mean = std::accumulate(walls.begin() + half, walls.end(), 0.0) /
                             static_cast<double>(walls.end() - walls.begin() - half);
  const double half_ratio = first_mean / second_mean;
  std::fprintf(stderr,
               "perfbench %s seed %llu: %zu rounds x %zu requests, %.0f req/s, "
               "second/first half throughput %.3f\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed), rounds,
               per_round, throughput, half_ratio);
  if (half_ratio < 0.9 || half_ratio > 1.1) {
    std::fprintf(stderr, "perfbench: warning: halves differ by more than 10%%\n");
  }

  std::string metrics = "{";
  append_metric(metrics, "throughput_rps", throughput, "1/s");
  append_metric(metrics, "p50_ms", 1e3 * median(p50), "ms");
  append_metric(metrics, "p90_ms", 1e3 * median(p90), "ms");
  append_metric(metrics, "p99_ms", 1e3 * median(p99), "ms");
  append_metric(metrics, "setup_s", median(report.setup_s), "s");
  append_metric(metrics, "peak_rss_mb", peak_rss, "MB");
  append_metric(metrics, "speedup_geomean", report.speedup_geomean, "x");
  metrics += "}";

  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": " + metrics;
  if (options.trace) {
    const double traced_rps = static_cast<double>(report.traced_requests) / report.traced_seconds;
    report.counters["guard.half_rps_ratio"] = half_ratio;
    write_trace(options, buffers, report, throughput, traced_rps);
    out += ", \"trace_out\": \"" + options.trace_out + "\"";
  }
  out += "}";
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
