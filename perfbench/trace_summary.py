#!/usr/bin/env python3
"""Per-layer summary of perfbench span dumps.

A traced run (``run.py --trace 1``) writes one JSON-lines dump per run: a
``{"type": "run", ...}`` header carrying the run's counters and its traced
and untraced throughput, then one ``[name, thread, index, parent, request,
start_ns, end_ns]`` array per span. This module turns a dump into the
per-layer metrics BENCHMARK.json lists, and, run as a script, prints them
for every dump given:

    python3 perfbench/trace_summary.py .bench_build/traces/*.jsonl

A span's self time is its duration minus the time its child spans cover; a
layer's ``*_us`` metric is the mean self time of its spans in microseconds.
"""

import json
import os
import sys
from collections import defaultdict

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                              "BENCHMARK.json")


def metric_specs(kind):
    """The ``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(BENCHMARK_JSON) as spec:
        return json.load(spec)[kind]


def load(path):
    """Returns (header, spans) of one dump."""
    header = None
    spans = []
    with open(path) as dump:
        for line in dump:
            record = json.loads(line)
            if isinstance(record, dict):
                header = record
            else:
                spans.append(record)
    if header is None:
        raise ValueError(f"{path}: no run header")
    return header, spans


def self_times(spans):
    """Maps span name -> list of self times in microseconds."""
    covered = defaultdict(int)
    for _name, thread, _index, parent, _request, start, end in spans:
        if parent >= 0:
            covered[(thread, parent)] += end - start
    out = defaultdict(list)
    for name, thread, index, _parent, _request, start, end in spans:
        out[name].append((end - start - covered[(thread, index)]) / 1e3)
    return out


def layer_metrics(header, times):
    """Every per-layer metric of one dump, by name, from its header and its
    self_times(). Metrics a workload does not exercise read 0."""
    values = {spec["name"]: 0.0 for spec in metric_specs("per_layer")}
    for name, samples in times.items():
        metric = name + "_us"
        if metric in values:
            values[metric] = sum(samples) / len(samples)
    for name, value in header.get("counters", {}).items():
        if name in values:
            values[name] = float(value)
    untraced = header["untraced_rps"]
    values["trace.overhead_pct"] = 100.0 * (1.0 - header["traced_rps"] / untraced)
    return values


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        header, spans = load(path)
        times = self_times(spans)
        values = layer_metrics(header, times)
        print(f"== {header['workload']} (seed {header['seed']}, {len(spans)} spans): "
              f"untraced {header['untraced_rps']:.1f} req/s, traced "
              f"{header['traced_rps']:.1f} req/s, tracing overhead "
              f"{values['trace.overhead_pct']:.1f}%")
        request_self = times.get("request", [])
        if request_self:
            print(f"   {'request (outside layer spans)':32s} "
                  f"{sum(request_self) / len(request_self):14.3f} us")
        for spec in metric_specs("per_layer"):
            name = spec["name"]
            if values[name] != 0.0:
                print(f"   {name:32s} {values[name]:14.3f} {spec['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
