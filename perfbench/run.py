"""Benchmark of the cmt memory tree: one workload, one seed, one run.

    python3 perfbench/run.py --workload kv-churn --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the run repeats whole rounds of the workload until
the next round would not fit in `--seconds`, and prints the end-to-end
metrics. With `--trace 1` it runs the first round once untraced and once
with every cmt layer wrapped in spans, and prints the per-layer metrics and
the tracing overhead. Either way the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; progress
and check failures go to standard error. Exit code 2 means the run could
not start (bad arguments, no `src/cmt` next to this directory).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
TAIL_MIN_SAMPLES = 1000
# Operation kinds with a p95 metric. kv-churn's p95 remove is one that walks
# every leaf at a capacity step; that walk is bound by memory latency, and
# its corrected time moved between runs by more than any bound allows.
TAIL_KINDS = ("insert", "query")


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def import_fresh() -> None:
    """Start a fresh interpreter that imports cmt from the checkout, and wait for it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import cmt"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def run_round(wl, data, ctx) -> None:
    """One round with the cyclic garbage collector off, as timeit does.

    Collection pauses depend on every object in the process, the benchmark's
    own bookkeeping included, so collections run between rounds and after
    the snapshot phase, outside timed operations.
    """
    gc.collect()
    gc.disable()
    try:
        wl.round(data, ctx)
    finally:
        gc.enable()
        gc.collect()


def end_to_end(timings: dict, setup: list[float]) -> dict:
    """The end-to-end metrics of BENCHMARK.json from speed-corrected timings.

    The tail is reported as p95, from TAIL_MIN_SAMPLES samples up: over ten
    seeds on this host the corrected p99 of the same workload spread by 10 to
    56 % of its median, too much to bound a regression by, and p99 goes to
    standard error only.
    """
    from workloads import OP_KINDS

    metrics = {"setup_s": (statistics.median(setup), "s")}
    ops = 0
    busy = 0.0
    for kind in OP_KINDS:
        ordered = sorted(timings[kind])
        ops += len(ordered)
        busy += sum(ordered)
        if not ordered:
            continue
        metrics[f"{kind}_p50_ms"] = (1000.0 * statistics.median(ordered), "ms")
        if kind in TAIL_KINDS and len(ordered) >= TAIL_MIN_SAMPLES:
            metrics[f"{kind}_p95_ms"] = (1000.0 * percentile(ordered, 0.95), "ms")
    if busy > 0.0:
        metrics["ops_per_s"] = (ops / busy, "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer, quality: dict, overhead_pct: float) -> dict:
    m: dict = {}
    timed = (
        "learners.router_raw", "learners.router_update", "learners.pair_features",
        "learners.scorer_predict", "learners.scorer_update", "features.l2_distance",
        "features.fingerprint", "features.hash_features", "tree.path", "tree.top_k",
        "tree.insert", "tree.reroute", "tree.remove", "tree.update", "tree.query",
        "tasks.mc_step", "tasks.oas_step",
    )
    for name in timed:
        m[f"{name}.calls"] = (tracer.calls(name), "count")
        m[f"{name}.self_ms"] = (tracer.self_ms(name), "ms")
    for name in ("tasks.oas_update", "tasks.oas_predict", "snapshot.save", "snapshot.load",
                 "synth.generate"):
        m[f"{name}.self_ms"] = (tracer.self_ms(name), "ms")
    counts = tracer.counts
    m["snapshot.bytes"] = (int(counts.get("snapshot.bytes", 0)), "bytes")
    raw, updates = tracer.calls("learners.router_raw"), tracer.calls("learners.router_update")
    m["learners.router_raw_per_update"] = (raw / updates if updates else 0.0, "ratio")
    m["tree.top_k.memories_scored"] = (int(counts.get("tree.top_k.memories_scored", 0)), "count")
    m["tree.splits"] = (int(counts.get("tree.splits", 0)), "count")
    m["tree.split_ms"] = (1000.0 * counts.get("tree.split_s", 0.0), "ms")
    m["tree.remove.capacity_walks"] = (int(counts.get("tree.remove.capacity_walks", 0)), "count")
    m["tree.update.stale_keys"] = (int(counts.get("tree.update.stale_keys", 0)), "count")
    m["tree.query.rng_advances"] = (int(counts.get("tree.query.rng_advances", 0)), "count")
    steps = tracer.calls("tasks.oas_step")
    m["tasks.oas_candidates_per_query"] = (
        counts.get("tasks.oas_candidates", 0) / steps if steps else 0.0, "count")
    m["tree.max_depth"] = (quality.get("max_depth", 0), "count")
    m["tree.max_leaf"] = (quality.get("max_leaf", 0), "count")
    m["tree.max_progressive_error"] = (quality.get("max_progressive_error", 0.0), "ratio")
    m["tree.self_consistency_error"] = (quality.get("self_consistency_error", 0.0), "ratio")
    m["tasks.test_accuracy"] = (quality.get("test_accuracy", 0.0), "ratio")
    m["tasks.exact_nn_accuracy"] = (quality.get("exact_nn_accuracy", 0.0), "ratio")
    m["tasks.test_hamming_loss"] = (quality.get("test_hamming_loss", 0.0), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.spans"] = (tracer.span_total, "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "cmt", "__init__.py")):
        print(f"perfbench: no cmt sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads
    from speed import SpeedProbe
    from workloads import Context, Recorder, log

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    speed = SpeedProbe()
    try:
        setup = []  # (seconds, probe window)
        data = None
        for _ in range(SETUP_REPEATS):
            window = speed.probe()
            t0 = time.perf_counter()
            import_fresh()
            data = wl.generate(round_seed(args.seed, 0))
            setup.append((time.perf_counter() - t0, window))

        rec = Recorder(speed)
        if not args.trace:
            start = time.perf_counter()
            durations = []
            r = 0
            while True:
                if r:
                    data = wl.generate(round_seed(args.seed, r))
                t0 = time.perf_counter()
                run_round(wl, data, Context(rec, workdir, round_seed(args.seed, r)))
                durations.append(time.perf_counter() - t0)
                r += 1
                data = None
                if time.perf_counter() - start + statistics.fmean(durations) > args.seconds:
                    break
            factors = speed.factors()
            log(f"{wl.name}: {r} round(s) in {time.perf_counter() - start:.1f}s; speed factors "
                f"{min(factors):.3f} to {max(factors):.3f}, median {statistics.median(factors):.3f}")
            raw = {k: [dt for dt, _ in v] for k, v in rec.raw.items()}
            log("raw p50 ms: " + ", ".join(
                f"{k} {1000.0 * statistics.median(v):.4f}" for k, v in raw.items() if v))
            timings = rec.timings(factors)
            log("p95/p99 ms: " + ", ".join(
                f"{k} {1000.0 * percentile(sorted(v), 0.95):.4f}/"
                f"{1000.0 * percentile(sorted(v), 0.99):.4f}"
                for k, v in timings.items() if len(v) >= TAIL_MIN_SAMPLES))
            metrics = end_to_end(timings, [dt * factors[w] for dt, w in setup])
        else:
            from tracing import Tracer

            seed0 = round_seed(args.seed, 0)
            run_round(wl, data, Context(rec, workdir, seed0))
            data = None
            tracer = Tracer()
            traced = Recorder(speed, tracer)
            quality: dict = {}
            tracer.install()
            try:
                data = wl.generate(seed0)
                run_round(wl, data, Context(traced, workdir, seed0, quality, tracer))
            finally:
                tracer.uninstall()
            factors = speed.factors()
            base = sum(sum(v) for v in rec.timings(factors).values())
            overhead = 100.0 * (sum(sum(v) for v in traced.timings(factors).values()) / base - 1.0)
            tracer.write_spans(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl"))
            rec.attempted += traced.attempted
            rec.failed += traced.failed
            rec.problems += traced.problems
            rec.op_errors += traced.op_errors
            metrics = per_layer(tracer, quality, overhead)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in rec.op_errors[:10]:
        log(f"failed operation: {line.rstrip()}")
    for line in rec.problems[:10]:
        log(f"check failed: {line}")
    result = {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
