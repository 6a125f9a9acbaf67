#!/usr/bin/env python3
# Copyright (c) mhxq authors. Licensed under the MIT license.
"""The repository benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload serve-resident --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. Builds the mhx library and the load driver
from source (Release) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the driver, and reduces its raw samples:

  --trace 0  every end-to-end metric, from raw per-operation samples;
  --trace 1  every per-layer metric: QueryTrace stage/slot spans, registry
             counter deltas over the timed phase, and the driver's direct
             layer calls. Also writes a Trace Event Format file (open it in
             Perfetto) under .bench_build/perfbench-out/.

Human-readable lines (with sample counts and, for layer metrics, the
end-to-end metric each should move) come first; the last line of stdout is
the JSON result. Exit status is non-zero on any failed or mismatched
operation, and when the build or the driver fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLASSES = ["I1", "I2", "II1", "III1"]
AXES = ["xancestor", "xdescendant", "overlapping", "xfollowing", "xpreceding"]
DRIVER_TIMEOUT_S = 170
PERFETTO_WINDOW_NS = 2 * 10**9  # traced-phase prefix exported as trace events

# (name, unit, better) — BENCHMARK.json lists the same.
END_TO_END = [
    ("qps", "1/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
    ("I1_p50_ms", "ms", "lower"),
    ("I2_p50_ms", "ms", "lower"),
    ("II1_p50_ms", "ms", "lower"),
    ("III1_p50_ms", "ms", "lower"),
    ("commits_per_s", "1/s", "higher"),
    ("commit_p50_ms", "ms", "lower"),
    ("commit_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("arena_bytes_per_text_byte", "B/B", "lower"),
    ("setup_s", "s", "lower"),
]

SR, CW, FL = "serve-resident", "churn-write", "fanout-large"
ALL = "all workloads"
STEPS = "I1_p50_ms, I2_p50_ms @ " + SR
POOL = "II1_p50_ms, I2_p50_ms @ " + FL + " (0 elsewhere)"
BUILD = "setup_s @ " + ALL + "; query_p99_ms @ " + CW

# (name, unit, better, the end-to-end metric(s) it should move, and where).
PER_LAYER = [
    ("corpus.admission_wait_us.p50", "us", "lower", "II1_p50_ms, query_p99_ms @ " + SR),
    ("corpus.admission_wait_us.p99", "us", "lower", "II1_p50_ms, query_p99_ms @ " + SR),
    ("corpus.doc_build_us.p50", "us", "lower", "query_p99_ms @ " + CW),
    ("corpus.doc_build_us.p99", "us", "lower", "query_p99_ms @ " + CW),
    ("corpus.miss_ratio", "ratio", "lower", "query_p99_ms @ " + CW),
    ("corpus.mmap_load_share", "ratio", "higher", "query_p99_ms @ " + CW),
    ("corpus.evictions_per_kquery", "1/kquery", "lower", "qps @ " + CW),
    ("corpus.load_fallbacks", "count", "lower", "error_rate"),
    ("corpus.heavy_rejections", "count", "lower", "error_rate"),
    ("corpus.write_rejections", "count", "lower", "error_rate"),
    ("xquery.parse_us", "us", "lower", "query_p50_ms @ " + CW),
    ("xquery.parse_query_us", "us", "lower", "query_p50_ms @ " + CW),
    ("xquery.plan_hit_ratio", "ratio", "higher", "query_p50_ms @ " + CW),
    ("xquery.replans_per_commit", "1/commit", "lower", "query_p50_ms @ " + CW),
    ("xquery.plan_lookup_us", "us", "lower", "query_p50_ms @ " + ALL),
    ("xquery.index_materialize_us.p50", "us", "lower", "query_p99_ms @ " + CW),
    ("xquery.index_materialize_us.p99", "us", "lower", "query_p99_ms @ " + CW),
] + [
    ("xquery.evaluate_us." + c, "us", "lower", c + "_p50_ms @ " + SR) for c in CLASSES
] + [
    ("xquery.serialize_us", "us", "lower", "I2_p50_ms, III1_p50_ms @ " + SR),
    ("xquery.output_bytes_per_query", "B", "lower", "I2_p50_ms, III1_p50_ms @ " + SR),
    ("planner.steps_indexed_per_query", "1/query", "lower", STEPS),
    ("planner.steps_scanned_per_query", "1/query", "lower", STEPS),
    ("planner.pushdowns_per_query", "1/query", "higher", STEPS),
    ("engine.sorts_skipped_per_query", "1/query", "higher", STEPS),
] + [
    ("xpath.kernel_ns_per_interval." + a, "ns", "lower", STEPS) for a in AXES
] + [
    ("xpath.kernel_selectivity", "ratio", "higher", STEPS),
] + [
    ("xpath.probe_us." + a, "us", "lower", STEPS) for a in AXES
] + [
    ("regex.findall_ns_per_byte", "ns/B", "lower", "II1_p50_ms @ " + SR + ", " + FL),
    ("regex.compile_us", "us", "lower", "query_p50_ms @ " + CW),
    ("regex.cache_hit_ratio", "ratio", "higher", "query_p50_ms @ " + CW),
    ("goddag.build_ms_per_kword", "ms/kword", "lower", BUILD),
    ("xml.parse_ns_per_byte", "ns/B", "lower", BUILD),
    ("goddag.commit_ms", "ms", "lower", "commit_p50_ms @ " + CW),
    ("goddag.live_snapshots", "count", "lower", "peak_rss_mb @ " + CW),
    ("persist.serialize_us", "us", "lower", "commit_p50_ms @ " + CW),
    ("persist.write_us", "us", "lower", "commit_p50_ms @ " + CW),
    ("persist.load_us", "us", "lower", "query_p99_ms @ " + CW),
    ("persist.arena_bytes", "B", "lower", "arena_bytes_per_text_byte"),
    ("pool.parallel_tasks_per_query", "1/query", "higher", POOL),
    ("pool.steals_per_query", "1/query", "lower", POOL),
    ("pool.slot_busy_ratio", "ratio", "higher", POOL),
    ("pool.slot_imbalance", "ratio", "lower", POOL),
    ("pool.serial_us", "us", "lower", POOL),
    ("trace.overhead_ratio", "ratio", "lower", "(tracing cost; every workload)"),
    ("error_rate", "ratio", "lower", "(failed / attempted operations)"),
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def check_benchmark_json(root):
    """Keeps BENCHMARK.json's metric lists in step with the tables above."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expected = [row[:3] for row in table]
        if listed != expected:
            fail("BENCHMARK.json %s differs from run.py's metric table" % key)


def output_root(root):
    """Where builds and outputs go: $CARGO_TARGET_DIR, else .bench_build."""
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root):
    """Configures and builds the driver; returns its path."""
    build_dir = os.path.join(output_root(root), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "mhx_perfbench")


def percentile(values, q):
    """Nearest-rank percentile of raw samples (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# --- End-to-end reduction ---------------------------------------------------


def end_to_end(raw):
    """{name: (value, samples)} for every end-to-end metric."""
    phase = raw["phases"][0]
    ops = phase["ops"]  # [client, class, edition, text, begin, latency, ok, bytes]
    ms = [op[5] / 1e6 for op in ops]
    done = sum(1 for op in ops if op[6])
    out = {
        "qps": (done / phase["seconds"], done),
        "query_p50_ms": (percentile(ms, 0.50), len(ms)),
        "query_p99_ms": (percentile(ms, 0.99), len(ms)),
    }
    for c, name in enumerate(CLASSES):
        cls = [op[5] / 1e6 for op in ops if op[1] == c]
        out[name + "_p50_ms"] = (percentile(cls, 0.50), len(cls))
    # The writer client's commits on churn-write; the quiesced commit bursts
    # between read segments elsewhere.
    commits, seconds = phase["commits"], phase["seconds"]
    if not commits:
        commits, seconds = raw["probe_commits"], raw["probe_seconds"]
    cms = [c[1] / 1e6 for c in commits]
    good = sum(1 for c in commits if c[2])
    out["commits_per_s"] = (ratio(good, seconds), good)
    out["commit_p50_ms"] = (percentile(cms, 0.50), len(cms))
    out["commit_p99_ms"] = (percentile(cms, 0.99), len(cms))
    out["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024.0, 1)
    out["arena_bytes_per_text_byte"] = (ratio(raw["arena_bytes"], raw["text_bytes"]), 1)
    out["setup_s"] = (median(raw["setup_s"]), len(raw["setup_s"]))
    return out


# --- Per-layer reduction ----------------------------------------------------


def union_ns(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0, lo
    for b, e in sorted(intervals):
        b, e = max(b, reach), min(e, hi)
        if e > b:
            total += e - b
            reach = e
    return total


def spans_by_op(phase):
    by_op = {}
    for op, name, is_slot, begin, end, slot, bindings, steals in phase["spans"]:
        by_op.setdefault(op, []).append((name, is_slot, begin, end, slot))
    return by_op


def self_times(phase):
    """{span kind: [self ns]} — duration minus what its children cover.

    The tree per query: the client-side "query" span holds the stage spans;
    "evaluate" holds every slot span of every parallel loop (nested loops
    are flattened into it); slot spans are leaves.
    """
    selfs = {}
    for i, spans in spans_by_op(phase).items():
        op = phase["ops"][i]
        q0, q1 = op[4], op[4] + op[5]
        stages = [(b, e) for name, is_slot, b, e, _ in spans if not is_slot]
        slots = [(b, e) for name, is_slot, b, e, _ in spans if is_slot]
        selfs.setdefault("query", []).append((q1 - q0) - union_ns(stages, q0, q1))
        for name, is_slot, b, e, _ in spans:
            kind = "slot" if is_slot else name
            covered = union_ns(slots, b, e) if name == "evaluate" else 0
            selfs.setdefault(kind, []).append((e - b) - covered)
    return selfs


def per_layer(raw):
    untraced, traced = raw["phases"]
    before, after = traced["registry_before"], traced["registry_after"]

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    ops = traced["ops"]
    by_op = spans_by_op(traced)
    stage_us = {}
    eval_us = {c: [] for c in CLASSES}
    busy_ratio_num = busy_ratio_den = 0
    imbalance, serial_us = [], []
    threads = raw["query_threads"]
    for i, spans in by_op.items():
        cls = CLASSES[ops[i][1]]
        slots = [(b, e, slot) for name, is_slot, b, e, slot in spans if is_slot]
        for name, is_slot, b, e, _ in spans:
            if is_slot:
                continue
            stage_us.setdefault(name, []).append((e - b) / 1e3)
            if name == "evaluate":
                eval_us[cls].append((e - b) / 1e3)
                if slots:
                    busy = {}
                    for sb, se, slot in slots:
                        busy[slot] = busy.get(slot, 0) + (se - sb)
                    busy_ratio_num += sum(busy.values())
                    busy_ratio_den += threads * (e - b)
                    imbalance.append(max(busy.values()) / statistics.mean(busy.values()))
                    covered = union_ns([(sb, se) for sb, se, _ in slots], b, e)
                    serial_us.append(((e - b) - covered) / 1e3)

    def stage(name, q):
        values = stage_us.get(name, [])
        return (percentile(values, q), len(values))

    queries = delta("mhx_corpus_queries_total")
    builds = delta("mhx_corpus_builds_total")
    plan_hits = delta("mhx_plan_cache_hits_total")
    plans = plan_hits + delta("mhx_plan_cache_misses_total")
    re_hits = delta("mhx_plan_cache_regex_hits_total")
    regexes = re_hits + delta("mhx_plan_cache_regex_misses_total")
    writes = delta("mhx_corpus_writes_total")
    replans = delta("mhx_plan_cache_replans_total")
    evictions = delta("mhx_corpus_evictions_total")
    output_bytes = statistics.mean([op[7] for op in ops]) if ops else 0.0

    def per_query(name):
        return (ratio(delta(name), queries), queries)

    qps_u = sum(1 for op in untraced["ops"] if op[6]) / untraced["seconds"]
    qps_t = sum(1 for op in ops if op[6]) / traced["seconds"]
    verify = raw["verify"]
    layers = raw["layers"]

    out = {
        "corpus.admission_wait_us.p50": stage("admission_wait", 0.50),
        "corpus.admission_wait_us.p99": stage("admission_wait", 0.99),
        "corpus.doc_build_us.p50": stage("doc_build", 0.50),
        "corpus.doc_build_us.p99": stage("doc_build", 0.99),
        "corpus.miss_ratio": (ratio(builds, queries), queries),
        "corpus.mmap_load_share": (ratio(delta("mhx_mmap_loads_total"), builds), builds),
        "corpus.evictions_per_kquery": (1000 * ratio(evictions, queries), queries),
        "corpus.load_fallbacks": (delta("mhx_load_fallbacks_total"), queries),
        "corpus.heavy_rejections": (delta("mhx_admission_heavy_rejected_total"), queries),
        "corpus.write_rejections": (delta("mhx_corpus_write_rejected_total"),
                                    len(traced["commits"])),
        "xquery.parse_us": stage("parse", 0.50),
        "xquery.plan_hit_ratio": (ratio(plan_hits, plans), plans),
        "xquery.replans_per_commit": (ratio(replans, writes), writes),
        "xquery.plan_lookup_us": stage("plan_lookup", 0.50),
        "xquery.index_materialize_us.p50": stage("index_materialize", 0.50),
        "xquery.index_materialize_us.p99": stage("index_materialize", 0.99),
        "xquery.serialize_us": stage("serialize", 0.50),
        "xquery.output_bytes_per_query": (output_bytes, len(ops)),
        "planner.steps_indexed_per_query": per_query("mhx_plan_steps_indexed_total"),
        "planner.steps_scanned_per_query": per_query("mhx_plan_steps_scanned_total"),
        "planner.pushdowns_per_query": per_query("mhx_plan_pushdowns_total"),
        "engine.sorts_skipped_per_query": per_query("mhx_engine_sorts_skipped_total"),
        "regex.cache_hit_ratio": (ratio(re_hits, regexes), regexes),
        "goddag.live_snapshots": (after.get("mhx_goddag_live_snapshots", 0), 1),
        "pool.parallel_tasks_per_query": per_query("mhx_engine_parallel_tasks_total"),
        "pool.steals_per_query": per_query("mhx_engine_steals_total"),
        "pool.slot_busy_ratio": (ratio(busy_ratio_num, busy_ratio_den), len(imbalance)),
        "pool.slot_imbalance": (median(imbalance), len(imbalance)),
        "pool.serial_us": (median(serial_us), len(serial_us)),
        "trace.overhead_ratio": (ratio(qps_u, qps_t) - 1 if qps_t else 0.0, len(ops)),
        "error_rate": (ratio(verify["failed"], verify["attempted"]), verify["attempted"]),
    }
    for c in CLASSES:
        out["xquery.evaluate_us." + c] = (percentile(eval_us[c], 0.50), len(eval_us[c]))
    for name, value in layers.items():
        out[name] = (value, None)  # direct calls: medians over repeated calls
    return out


def write_perfetto(raw, path):
    """Trace Event Format JSON of the traced phase's first PERFETTO_WINDOW_NS:
    one track per client, slot spans on per-(client, slot) tracks, commits on
    the writer's."""
    phase = raw["phases"][1]
    events = []
    readers = {op[0] for op in phase["ops"]}
    kept = {i for i, op in enumerate(phase["ops"]) if op[4] < PERFETTO_WINDOW_NS}
    for i, op in enumerate(phase["ops"]):
        if i not in kept:
            continue
        events.append({"name": "query " + CLASSES[op[1]], "ph": "X", "pid": 1,
                       "tid": op[0], "ts": op[4] / 1e3, "dur": op[5] / 1e3,
                       "args": {"edition": op[2], "text": op[3], "ok": op[6],
                                "bytes": op[7]}})
    for op, name, is_slot, begin, end, slot, bindings, steals in phase["spans"]:
        if op not in kept:
            continue
        client = phase["ops"][op][0]
        event = {"name": name, "ph": "X", "pid": 1, "ts": begin / 1e3,
                 "dur": (end - begin) / 1e3,
                 "tid": 1000 + 16 * client + slot if is_slot else client}
        if is_slot:
            event["args"] = {"bindings": bindings, "steals": steals}
        events.append(event)
    writer = max(readers) + 1 if readers else 0
    for begin, latency, ok in phase["commits"]:
        if begin >= PERFETTO_WINDOW_NS:
            continue
        events.append({"name": "commit", "ph": "X", "pid": 1, "tid": writer,
                       "ts": begin / 1e3, "dur": latency / 1e3, "args": {"ok": ok}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": dict(raw["stamp"], workload=raw["workload"],
                                     seed=raw["seed"])}, f)


# --- Driver -----------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[SR, CW, FL])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    check_benchmark_json(root)
    binary = build(root)
    base = output_root(root)
    scratch = os.path.join(base, "perfbench-run", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    raw_path = os.path.join(scratch, "raw.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--scratch", scratch]
    started = time.monotonic()
    try:
        driver = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    if driver.returncode not in (0, 3) or not os.path.exists(raw_path):
        shutil.rmtree(scratch, ignore_errors=True)
        fail("driver exited with status %d" % driver.returncode)
    with open(raw_path) as f:
        raw = json.load(f)
    shutil.rmtree(scratch, ignore_errors=True)

    stamp = raw["stamp"]
    print("# perfbench workload=%s seed=%d seconds=%g trace=%d wall=%.1fs" % (
        args.workload, args.seed, args.seconds, args.trace, time.monotonic() - started))
    print("# stamp " + " ".join("%s=%s" % item for item in stamp.items()))
    for message in raw["verify"]["messages"]:
        print("# FAILED: " + message)

    if args.trace:
        values = per_layer(raw)
        table = PER_LAYER
        out_dir = os.path.join(base, "perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, "trace-%s-seed%d.json" % (
            args.workload, args.seed))
        write_perfetto(raw, trace_path)
        print("# trace events: " + os.path.relpath(trace_path, root))
        print("# self time per span kind (duration minus child coverage):")
        for kind, ns in sorted(self_times(raw["phases"][1]).items()):
            print("#   %-18s n=%-7d p50=%10.1f us  total=%10.1f ms" % (
                kind, len(ns), percentile(ns, 0.5) / 1e3, sum(ns) / 1e6))
    else:
        values = end_to_end(raw)
        table = END_TO_END
    metrics = {}
    for row in table:
        name, unit = row[0], row[1]
        value, samples = values[name]
        metrics[name] = {"value": float(value), "unit": unit}
        moves = ("  -> " + row[3]) if len(row) > 3 else ""
        count = "direct" if samples is None else "n=%d" % samples
        print("%-40s %16.6g %-9s %-10s%s" % (name, value, unit, count, moves))

    verify = raw["verify"]
    correct = verify["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": verify["attempted"],
                      "failed": verify["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
