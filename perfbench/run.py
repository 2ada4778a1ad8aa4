#!/usr/bin/env python3
"""Builds and runs one perfbench workload from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the sts library, sts_serve, and the perfbench binary from source
(CMake, Release) into $CARGO_TARGET_DIR or .bench_build, runs the workload
in a fresh process, and prints one JSON object as the last line of stdout:
the end-to-end metrics, or with --trace 1 the per-layer metrics computed from
the run's span dump (see trace_summary.py). Build output and diagnostics go
to stderr. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import trace_summary  # noqa: E402

WORKLOADS = ("paper_router", "paper_fleet", "huge_delta")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark package; False on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        return 1

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    dump = None
    if args.trace:
        trace_dir = os.path.join(root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        dump = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
        command += ["--trace-out", dump]
    # Its own process group, so whatever the run leaves behind (sts_serve
    # children of a run that overstayed or aborted) goes down with it.
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          start_new_session=True) as run:
        try:
            stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            timed_out = True
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if timed_out:
            run.communicate()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
    lines = stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    if args.trace:
        header, spans = trace_summary.load(dump)
        values = trace_summary.layer_metrics(header, trace_summary.self_times(spans))
        metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                   for spec in trace_summary.metric_specs("per_layer")}
    else:
        names = [spec["name"] for spec in trace_summary.metric_specs("end_to_end")]
        missing = [name for name in names if name not in result["metrics"]]
        if missing:
            print(f"perfbench: metrics missing from the run: {missing}", file=sys.stderr)
            return 1
        metrics = {name: result["metrics"][name] for name in names}
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
