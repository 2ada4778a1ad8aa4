#!/usr/bin/env python3
"""Project-specific invariants that neither the compiler nor clang-tidy check.

Run from anywhere: `python3 tools/lint_sts.py`. Exits non-zero listing every
violation. Enforced rules:

 1. The README stats table (headed `| counter | meaning |`) and the stats
    list (`for_each_stats_counter` in src/service/backend.hpp, which drives
    rendering, parsing and summing of the /stats document) agree both ways:
    every listed counter has a row, since a counter missing from the README
    is invisible to operators, and every row names a listed counter or one
    of the document's gauges (STATS_TABLE_GAUGES), since a row left behind
    by a deleted counter documents a key the document no longer carries.
    (The build checks the list itself against the Stats structs.)

 2. `sim/sim_internal.hpp` is private to src/sim/ — the simulator's internal
    event structures are not a public seam.

 3. Every bench/bench_*.cpp emits its BENCH_<name>.json report (CI archives
    these; perf gates read them), via BenchReport("<name>") or a literal
    "BENCH_<name>.json" write.

 4. A request key is hashed once, where ScheduleRequest memoizes it: no code
    in src/service/ or src/net/ passes a request key (`key`, `key_`,
    `release_key`, ...) to fnv1a64 — routing, shard picks, and cache probes
    reuse `key_hash()`, since one pass over a 10^5-node request's key costs
    milliseconds. The memo itself and the router's raw-key lookup
    (`backend_for_key`, which has no request to read a hash from) are the
    allowlisted sites.

 5. One outcome type crosses threads: in src/service/, src/net/ and
    src/pipeline/ every `std::promise`, `std::future` and
    `std::shared_future` carries `ScheduleResponse`, and nowhere in src/
    does a `std::exception_ptr`, `set_exception` or `rethrow_exception`
    appear. Errors cross thread boundaries as values: a stored exception rethrown on
    another thread is refcounted inside uninstrumented runtime code, which
    ThreadSanitizer reports as a false data race, and a second outcome type
    would need its own converters to the one the callers and the wire see.

 6. The key and wire writers read only a graph's flat node and edge arrays:
    the bodies of FLAT_WRITERS (the request-key fingerprint, the cache-key
    writer, the JSON and text writers), and of every function defined in the
    same file that they call, directly or through each other, call none of
    the CSR accessors in CSR_ACCESSORS. A cache hit keys a freshly copied or
    parsed graph, and any of those accessors would build that graph's CSR
    just to write bytes the flat arrays already hold.

 7. The canonical refinement's rounds read only flat, position-indexed
    scratch: the bodies of REFINEMENT_ROUNDS (the function that runs the
    Weisfeiler-Leman rounds in src/graph/serialization.cpp), and of every
    function defined in the same file that they call, directly or through
    each other, call none of CSR_ACCESSORS. The adjacency is built once per
    partition, outside the rounds; a CSR walk inside them would fetch edge
    spans and records again for every node in every round.

 8. A streaming pipeline run analyzes its graph's dependency order once:
    the run/validate bodies of the streaming passes in
    src/pipeline/passes.cpp (STREAMING_PASSES), and every src/core/ function
    they reach, directly or through each other, call none of
    ORDER_ANALYSES. They take the run's topological order and node levels
    from ScheduleContext::topology(). Each core function that takes the
    analysis keeps a standalone overload for callers off the pipeline path,
    which computes it; those overloads (STANDALONE_ENTRY_POINTS, told apart
    by parameter count) are not followed.

 9. One union-find: the path-halving step, an array indexed through its own
    element (`parent[parent[v]]`, PATH_HALVING), appears in src/ only in
    the body of the shared union-find's find (UNION_FIND_SITES, find_root
    in src/graph/algorithms.hpp). Components, stream contexts, the edge
    table's weak components and volume classes all run on it; a private
    copy is a second kernel to keep in step.

10. The edge-derived facts are computed once per edge table: the bodies of
    EDGE_TABLE_READERS (`is_acyclic`, `TaskGraph::validate`, and the
    whole-graph `canonical_partition_index` overloads in
    src/graph/serialization.cpp), and of every function defined in the
    same file that they call, directly or through each other, run no Kahn
    step (a decrement-and-test-zero of a counter array, KAHN_STEP) and
    call no `unite` or `find_root`; and nothing in
    src/graph/serialization.cpp calls the union-find. They read
    `TaskGraph::acyclic()` and `TaskGraph::weak_components()`, which the
    edge table derives in one Kahn pass and one union-find pass and shares
    between every graph that reads it; a pass of their own would re-derive
    them for every retuned 10^5-node delta.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BENCH = REPO / "bench"
README = REPO / "README.md"

def fail(errors: list[str], message: str) -> None:
    errors.append(message)


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments, keeping line breaks so line numbers hold
    (string literals are left alone: good enough for these rules, where the
    tokens we scan for never appear inside project string literals in a
    misleading way)."""
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def function_definitions(text: str, names: tuple[str, ...]):
    """Yields (name, parameters, start, end) for every definition of a
    function whose unqualified name is in `names`: text[start:end] is its
    body, found by brace tracking from the definition's opening brace."""
    pattern = re.compile(
        r"\b(?:[\w~]+\s*::\s*)*(" + "|".join(names) + r")\s*\(([^;{)]*)\)\s*"
        r"(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>&\s]+)?\{"
    )
    for match in pattern.finditer(text):
        start = match.end() - 1  # the '{'
        depth = 0
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    yield match.group(1), match.group(2), start, i + 1
                    break


def function_spans(text: str, names: tuple[str, ...]):
    """Yields (name, start, end) for every definition named in `names`."""
    for name, _, start, end in function_definitions(text, names):
        yield name, start, end


def parameter_count(parameters: str) -> int:
    """Parameters in a definition's parameter list (commas outside <>)."""
    if not parameters.strip():
        return 0
    depth = 0
    count = 1
    for char in parameters:
        if char == "<":
            depth += 1
        elif char == ">":
            depth -= 1
        elif char == "," and depth == 0:
            count += 1
    return count


def function_bodies(text: str, names: tuple[str, ...]):
    """Yields (name, body) for every definition named in `names`."""
    for name, start, end in function_spans(text, names):
        yield name, text[start:end]


def bracketed(text: str, start: int, pair: str = "()") -> str:
    """The text between the bracket at `start` (pair[0]) and its match."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == pair[0]:
            depth += 1
        elif text[i] == pair[1]:
            depth -= 1
            if depth == 0:
                return text[start + 1 : i]
    return text[start + 1 :]


# Rows of the README stats table that are gauges of the stats document
# itself, not counters of the stats list.
STATS_TABLE_GAUGES = {"schema_version", "uptime_seconds"}


def stats_table_rows() -> list[str] | None:
    """The names in the first column of the README stats table, in order, or
    None when no table is headed `| counter | meaning |`."""
    lines = README.read_text().splitlines()
    for i, line in enumerate(lines):
        if re.match(r"\s*\|\s*counter\s*\|\s*meaning\s*\|", line):
            rows = []
            for row in lines[i + 1 :]:
                if not row.lstrip().startswith("|"):
                    break
                if match := re.match(r"\s*\|\s*`(\w+)`\s*\|", row):
                    rows.append(match.group(1))
            return rows
    return None


def check_stats_documented(errors: list[str]) -> None:
    list_path = SRC / "service" / "backend.hpp"
    counters: list[str] = []
    for _, body in function_bodies(list_path.read_text(), ("for_each_stats_counter",)):
        counters += re.findall(r'visit\("(\w+)"', body)
    if not counters:
        fail(errors, f"{list_path.relative_to(REPO)}: for_each_stats_counter() not found")
        return
    rows = stats_table_rows()
    if rows is None:
        fail(errors, "README.md: no stats table headed `| counter | meaning |`")
        return
    for counter in counters:
        if counter not in rows:
            fail(
                errors,
                f"{list_path.relative_to(REPO)}: stats counter `{counter}` is missing "
                "from the README stats table",
            )
    for row in rows:
        if row not in counters and row not in STATS_TABLE_GAUGES:
            fail(
                errors,
                f"README.md: stats table row `{row}` names no counter of "
                "for_each_stats_counter and no document gauge",
            )


def check_sim_internal_private(errors: list[str]) -> None:
    for path in sorted(SRC.rglob("*.[ch]pp")):
        if path.is_relative_to(SRC / "sim"):
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r'#\s*include\s*"sim/sim_internal\.hpp"', line):
                fail(
                    errors,
                    f"{path.relative_to(REPO)}:{i}: sim/sim_internal.hpp is "
                    "private to src/sim/",
                )
    for path in sorted((REPO / "tests").glob("*.cpp")) + sorted(BENCH.glob("*.cpp")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r'#\s*include\s*"sim/sim_internal\.hpp"', line):
                fail(
                    errors,
                    f"{path.relative_to(REPO)}:{i}: sim/sim_internal.hpp is "
                    "private to src/sim/",
                )


def check_bench_reports(errors: list[str]) -> None:
    for path in sorted(BENCH.glob("bench_*.cpp")):
        name = path.stem[len("bench_") :]
        text = path.read_text()
        emits = (
            f'BenchReport report("{name}")' in text
            or f'BenchReport("{name}")' in text
            or f'"BENCH_{name}.json"' in text
        )
        if not emits:
            fail(
                errors,
                f"{path.relative_to(REPO)}: does not emit BENCH_{name}.json "
                f'(construct sts::bench::BenchReport("{name}") and write() it)',
            )


# (file, function) pairs allowed to hash a request key: the memo in
# ScheduleRequest::key(), and the router's lookup of a caller-supplied raw key.
KEY_HASH_SITES = {
    ("src/service/request.cpp", "key"),
    ("src/service/shard_router.cpp", "backend_for_key"),
}
REQUEST_KEY_NAMES = {"key", "key_", "release_key"}


def check_request_key_hashed_once(errors: list[str]) -> None:
    site_names = tuple(sorted({name for _, name in KEY_HASH_SITES}))
    for directory in (SRC / "service", SRC / "net"):
        for path in sorted(directory.rglob("*.[ch]pp")):
            rel = path.relative_to(REPO).as_posix()
            text = strip_comments(path.read_text())
            allowed = [
                (start, end)
                for name, start, end in function_spans(text, site_names)
                if (rel, name) in KEY_HASH_SITES
            ]
            for match in re.finditer(r"\bfnv1a64\s*\(", text):
                if any(start <= match.start() < end for start, end in allowed):
                    continue
                argument = bracketed(text, match.end() - 1)
                if REQUEST_KEY_NAMES & set(re.findall(r"[A-Za-z_]\w*", argument)):
                    line = text.count("\n", 0, match.start()) + 1
                    fail(
                        errors,
                        f"{rel}:{line}: fnv1a64({argument.strip()}) re-hashes a request key "
                        "— use ScheduleRequest::key_hash(), which is computed once per request",
                    )


OUTCOME_DIRS = ("service", "net", "pipeline")


def check_one_outcome_type(errors: list[str]) -> None:
    for path in sorted(SRC.rglob("*.[ch]pp")):
        rel = path.relative_to(REPO).as_posix()
        text = strip_comments(path.read_text())
        if any(path.is_relative_to(SRC / directory) for directory in OUTCOME_DIRS):
            for match in re.finditer(r"\bstd::(promise|future|shared_future)\s*<", text):
                argument = " ".join(bracketed(text, match.end() - 1, "<>").split())
                if argument.removeprefix("sts::") != "ScheduleResponse":
                    line = text.count("\n", 0, match.start()) + 1
                    fail(
                        errors,
                        f"{rel}:{line}: std::{match.group(1)}<{argument}> — settle futures "
                        "with ScheduleResponse, the one outcome type that crosses threads",
                    )
        for match in re.finditer(r"\b(exception_ptr|set_exception|rethrow_exception)\b", text):
            line = text.count("\n", 0, match.start()) + 1
            fail(
                errors,
                f"{rel}:{line}: {match.group(1)} — errors cross threads as "
                "ScheduleResponse values, never as stored exceptions",
            )


FLAT_WRITERS = (
    "append_canonical_fingerprint",
    "canonical_fingerprint",
    "append_canonical_cache_key",
    "append_task_graph_json",
    "save_task_graph_to_string",
)
CSR_ACCESSORS = (
    "profiles",
    "in_edges",
    "out_edges",
    "in_degree",
    "out_degree",
    "input_volume",
    "output_volume",
)
# Words followed by `(` that are not calls, so never helpers.
NOT_CALLS = {"if", "for", "while", "switch", "catch", "return", "sizeof"}


def check_no_csr_reads(errors: list[str], roots: tuple[str, ...], why: str) -> None:
    """Fails every call of a CSR accessor in the bodies of `roots` and of
    every function defined in the same file that they call, directly or
    through each other (every overload of a called name)."""
    found: set[str] = set()
    accessor = re.compile(r"\b(" + "|".join(CSR_ACCESSORS) + r")\s*\(")
    for path in sorted(SRC.rglob("*.cpp")):
        rel = path.relative_to(REPO).as_posix()
        text = strip_comments(path.read_text())
        pending = [(name, start, end) for name, start, end in function_spans(text, roots)]
        found.update(name for name, _, _ in pending)
        seen = {(start, end) for _, start, end in pending}
        while pending:
            name, start, end = pending.pop()
            body = text[start:end]
            for match in accessor.finditer(body):
                line = text.count("\n", 0, start + match.start()) + 1
                fail(errors, f"{rel}:{line}: {name}() calls {match.group(1)}() — {why}")
            called = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", body)) - NOT_CALLS
            if not called:
                continue
            for helper in function_spans(text, tuple(sorted(called))):
                if (helper[1], helper[2]) not in seen:
                    seen.add((helper[1], helper[2]))
                    pending.append(helper)
    for name in roots:
        if name not in found:
            fail(errors, f"src/: {name}() not found — update tools/lint_sts.py")


def check_writers_read_flat_arrays(errors: list[str]) -> None:
    check_no_csr_reads(
        errors,
        FLAT_WRITERS,
        "the key and wire writers read only the flat node and edge arrays (a CSR accessor "
        "builds the CSR of every freshly copied or parsed graph they write)",
    )


REFINEMENT_ROUNDS = ("refine_rounds",)


def check_refinement_rounds_read_flat_scratch(errors: list[str]) -> None:
    check_no_csr_reads(
        errors,
        REFINEMENT_ROUNDS,
        "the refinement rounds read only the partition's flat adjacency, built once "
        "outside them (a CSR walk would fetch edge spans and records every round)",
    )


STREAMING_PASSES = (
    "PartitionPass",
    "StreamingSchedulePass",
    "BufferSizingPass",
    "PlacementPass",
    "MetricsPass",
    "SimulationPass",
)
ORDER_ANALYSES = ("topological_order", "topological_waves", "node_levels", "graph_level")
# (file, function, parameter count) of the overloads that compute the
# analysis for callers off the pipeline path (tests, benches, examples,
# optimal_partition, analyze_work_depth) and hand it to the overload the
# passes call.
STANDALONE_ENTRY_POINTS = {
    ("src/core/partition.cpp", "partition_spatial_blocks", 5),
    ("src/core/partition.cpp", "partition_by_work", 4),
    ("src/core/partition.cpp", "partition_is_valid", 3),
    ("src/core/streaming_schedule.cpp", "schedule_streaming", 3),
    ("src/core/work_depth.cpp", "streaming_depth", 1),
}


def check_passes_share_one_topology(errors: list[str]) -> None:
    passes_rel = "src/pipeline/passes.cpp"
    passes_text = strip_comments((REPO / passes_rel).read_text())
    core = {
        path.relative_to(REPO).as_posix(): strip_comments(path.read_text())
        for path in sorted((SRC / "core").glob("*.cpp"))
    }
    pass_bodies = re.compile(
        r"\b(" + "|".join(STREAMING_PASSES) + r")::(run|validate)\s*\([^;{)]*\)\s*"
        r"(?:const\s*)?\{"
    )
    pending = []
    for match in pass_bodies.finditer(passes_text):
        start = match.end() - 1
        end = start + len(bracketed(passes_text, start, "{}")) + 2
        pending.append((f"{match.group(1)}::{match.group(2)}", passes_rel, start, end))
    for name in STREAMING_PASSES:
        if not any(label.startswith(name + "::") for label, _, _, _ in pending):
            fail(errors, f"{passes_rel}: {name}::run() not found — update tools/lint_sts.py")
    for rel, name, count in sorted(STANDALONE_ENTRY_POINTS):
        if not any(
            parameter_count(parameters) == count
            for _, parameters, _, _ in function_definitions(core.get(rel, ""), (name,))
        ):
            fail(errors, f"{rel}: no {count}-parameter {name}() — update tools/lint_sts.py")

    analysis = re.compile(r"\b(" + "|".join(ORDER_ANALYSES) + r")\s*\(")
    texts = {passes_rel: passes_text, **core}
    seen = {(rel, start) for _, rel, start, _ in pending}
    while pending:
        label, rel, start, end = pending.pop()
        text = texts[rel]
        body = text[start:end]
        for match in analysis.finditer(body):
            line = text.count("\n", 0, start + match.start()) + 1
            fail(
                errors,
                f"{rel}:{line}: {label}() calls {match.group(1)}() — a streaming run computes "
                "its topological order and node levels once; take them from "
                "ScheduleContext::topology()",
            )
        called = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", body)) - NOT_CALLS
        if not called:
            continue
        for core_rel, core_text in core.items():
            for name, parameters, s, e in function_definitions(core_text, tuple(sorted(called))):
                if (core_rel, name, parameter_count(parameters)) in STANDALONE_ENTRY_POINTS:
                    continue
                if (core_rel, s) not in seen:
                    seen.add((core_rel, s))
                    pending.append((name, core_rel, s, e))


PATH_HALVING = re.compile(r"\b(\w+)\s*\[[^\[\]\n]*\b\1\s*\[")
# (file, function) pairs where the path-halving step may appear.
UNION_FIND_SITES = {("src/graph/algorithms.hpp", "find_root")}


def check_one_union_find(errors: list[str]) -> None:
    site_names = tuple(sorted({name for _, name in UNION_FIND_SITES}))
    found = set()
    for path in sorted(SRC.rglob("*.[ch]pp")):
        rel = path.relative_to(REPO).as_posix()
        text = strip_comments(path.read_text())
        allowed = []
        for name, start, end in function_spans(text, site_names):
            if (rel, name) in UNION_FIND_SITES:
                allowed.append((start, end))
                found.add((rel, name))
        for match in PATH_HALVING.finditer(text):
            if any(start <= match.start() < end for start, end in allowed):
                continue
            line = text.count("\n", 0, match.start()) + 1
            fail(
                errors,
                f"{rel}:{line}: `{match.group(0)}` is a path-halving step outside the shared "
                "union-find — use find_root()/unite() from graph/algorithms.hpp",
            )
    for rel, name in sorted(UNION_FIND_SITES - found):
        fail(errors, f"{rel}: {name}() not found — update tools/lint_sts.py")


KAHN_STEP = re.compile(r"--\s*[A-Za-z_]\w*\s*\[[^\]\n]*\]\s*==\s*0")
UNION_FIND_CALL = re.compile(r"\b(unite|find_root)\s*\(")
# (file, function, parameter counts or None for every overload) of the sites
# that read the edge table's verdict and components. The parameter filter
# holds wherever the name is followed, so the memo overload of
# canonical_partition_index (whose missed partitions walk their own levels)
# is not reached through the whole-graph ones.
EDGE_TABLE_READERS = (
    ("src/graph/algorithms.cpp", "is_acyclic", None),
    ("src/graph/task_graph.cpp", "validate", None),
    ("src/graph/serialization.cpp", "canonical_partition_index", {1, 2}),
)
UNION_FIND_FREE_FILES = ("src/graph/serialization.cpp",)


def check_edge_facts_read_from_the_table(errors: list[str]) -> None:
    why = (
        "read TaskGraph::acyclic() and TaskGraph::weak_components(), derived once per "
        "shared edge table"
    )
    for rel in sorted({rel for rel, _, _ in EDGE_TABLE_READERS}):
        text = strip_comments((REPO / rel).read_text())
        counts = {name: allowed for r, name, allowed in EDGE_TABLE_READERS if r == rel}

        def followed(name: str, parameters: str) -> bool:
            allowed = counts.get(name)
            return allowed is None or parameter_count(parameters) in allowed

        pending = [
            (name, start, end)
            for name, parameters, start, end in function_definitions(text, tuple(sorted(counts)))
            if followed(name, parameters)
        ]
        for name in counts:
            if not any(found == name for found, _, _ in pending):
                fail(errors, f"{rel}: {name}() not found — update tools/lint_sts.py")
        seen = {(start, end) for _, start, end in pending}
        while pending:
            name, start, end = pending.pop()
            body = text[start:end]
            for pattern, what in ((KAHN_STEP, "a Kahn step"), (UNION_FIND_CALL, "the union-find")):
                for match in pattern.finditer(body):
                    line = text.count("\n", 0, start + match.start()) + 1
                    fail(
                        errors,
                        f"{rel}:{line}: {name}() runs {what} (`{match.group(0).strip()}`) — {why}",
                    )
            called = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", body)) - NOT_CALLS
            if not called:
                continue
            for helper, parameters, s, e in function_definitions(text, tuple(sorted(called))):
                if followed(helper, parameters) and (s, e) not in seen:
                    seen.add((s, e))
                    pending.append((helper, s, e))
    for rel in UNION_FIND_FREE_FILES:
        text = strip_comments((REPO / rel).read_text())
        for match in UNION_FIND_CALL.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            fail(
                errors,
                f"{rel}:{line}: {match.group(1)}() — the canonicalization takes its partitions "
                f"from TaskGraph::weak_components(); {why}",
            )


def main() -> int:
    errors: list[str] = []
    check_stats_documented(errors)
    check_sim_internal_private(errors)
    check_bench_reports(errors)
    check_request_key_hashed_once(errors)
    check_one_outcome_type(errors)
    check_writers_read_flat_arrays(errors)
    check_refinement_rounds_read_flat_scratch(errors)
    check_passes_share_one_topology(errors)
    check_one_union_find(errors)
    check_edge_facts_read_from_the_table(errors)
    if errors:
        print(f"lint_sts: {len(errors)} violation(s)", file=sys.stderr)
        for message in errors:
            print(f"  {message}", file=sys.stderr)
        return 1
    print("lint_sts: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
