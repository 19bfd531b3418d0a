"""Steadiness check: run one workload K times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 servebench/steady.py --workload write-replicate --runs 10

Each run uses another seed (``--seed-base`` + i).  For every metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``),
(q3 - q1) / median, the metric's bound from ``BENCHMARK.json``, and
whether the medians of the first and second half of the runs agree
within that bound.  It exits 1 when a spread exceeds its metric's
bound or the halves disagree, so it can re-prove steadiness after any
change to the benchmark.  Every run measures ``run_seconds`` of
``BENCHMARK.json``, as the benchmark's runs do.  The raw per-run results
go to ``.bench_run/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    manifest = {}
    if len(lines) > 1 and lines[-2].startswith("manifest "):
        manifest = json.loads(lines[-2][len("manifest "):])
    return {"seed": seed, "wall_s": time.perf_counter() - started,
            "result": result, "manifest": manifest}


def report(runs, bounds) -> bool:
    """Print the spread table; True when every bounded metric is steady."""
    names = list(runs[0]["result"]["metrics"])
    half = len(runs) // 2
    steady = True
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6} {'halves':>8}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        first = statistics.median(values[:half])
        second = statistics.median(values[half:])
        drift = abs(second - first) / first if first else 0.0
        agree = bound is None or drift <= bound
        ok = bound is None or (agree and rel <= bound)
        steady &= ok
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.4f} "
              f"{'' if bound is None else f'{bound:6.2f}':>6} "
              f"{drift:8.4f}{'' if ok else '  <-- NOT STEADY'}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1, dest="seed_base")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 (quartiles of two halves)")
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for i in range(args.runs):
        run = run_once(args.workload, args.seed_base + i, seconds)
        runs.append(run)
        manifest = run["manifest"]
        print(f"seed {run['seed']}: {run['wall_s']:.1f}s wall, "
              f"recycles={manifest.get('pool.recycles')} "
              f"compactions={manifest.get('store.compactions')} "
              f"replayed={manifest.get('store.records_replayed')} "
              f"calibration={manifest.get('calibration_s')}", flush=True)
    out = os.path.join(".bench_run", f"steady-{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
    return 0 if report(runs, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
