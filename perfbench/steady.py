"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 perfbench/steady.py

Runs `run.py --trace 0` for every workload of BENCHMARK.json, ten seeds per
set and two sets (seeds 1-10, then 11-20), one process at a time, each run
for BENCHMARK.json's `run_seconds`. For each workload and end-to-end metric
it reports, per set, the median and the spread (q3 - q1) / median from
`statistics.quantiles(values, n=4)`, and checks that:

  * every run is correct and prints every end-to-end metric;
  * every spread except that of setup_s is within the metric's bound;
  * the second set's median is not worse than the first's by more than the
    bound;
  * the share of failed operations is exactly the same in both sets.

The table goes to standard output and every run's result to
perfbench/out/steady.json. Exit code 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEEDS = (range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results: dict = {w: ([], []) for w in names}
    for s, seeds in enumerate(SEEDS):
        for w in names:
            for seed in seeds:
                out = run_once(w, seed, bench["run_seconds"])
                out["seed"] = seed
                results[w][s].append(out)
                print(f"set {s + 1} {w} seed {seed}: correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']}",
                      file=sys.stderr, flush=True)

    ok = True
    report: dict = {"runs": results, "checks": []}
    print(f"{'workload':16s} {'metric':16s} {'bound':>6s} {'median1':>12s} {'spread1':>8s} "
          f"{'median2':>12s} {'spread2':>8s} {'worse':>7s}  verdict")
    for w in names:
        first, second = results[w]
        incorrect = [r["seed"] for r in first + second if not r["correct"]]
        if incorrect:
            ok = False
            print(f"{w}: runs with seeds {incorrect} reported incorrect output")
        shares = [Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in (first, second)]
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share differs between sets: {shares[0]} and {shares[1]}")
        for name, spec in metrics.items():
            missing = [r["seed"] for r in first + second if name not in r["metrics"]]
            if missing:
                ok = False
                print(f"{w}: {name} missing from runs with seeds {missing}")
                continue
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in (first, second)]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            bound = spec["bound"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            good = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok = ok and good
            verdict = "ok" if good else "FAIL"
            if good and name != "setup_s" and max(spreads) > bound / 3.0:
                verdict = "ok (spread above bound/3)"
            print(f"{w:16s} {name:16s} {bound:6.3f} {medians[0]:12.6g} {spreads[0]:8.4f} "
                  f"{medians[1]:12.6g} {spreads[1]:8.4f} {worse:7.4f}  {verdict}")
            report["checks"].append({"workload": w, "metric": name, "bound": bound,
                                     "medians": medians, "spreads": spreads,
                                     "worse": worse, "ok": good})
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
