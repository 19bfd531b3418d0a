"""Serving benchmark of the CQA service: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload write-replicate --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` sets up the served system (``python -m repro serve``
with the flags in :data:`cluster.SERVE_FLAGS`, a primary and one
follower) three times.  After the second set-up it measures the
workload's fixed operation sequence in one stretch, so that the
store's compactions land on fixed operations of it, then restarts the
primary :data:`RESTARTS` times, reading back every acked write after
each.  It prints the end-to-end metrics.  ``--trace 1`` replays the same seed
against the same served system started with spans around each layer's
entry points, and prints the per-layer metrics (see ``layers.py``).

``--seconds`` sets the operation count through each workload's nominal
rate; the count never depends on the clock, so every run of a seed
does the same operations in the same order.

The last stdout line is the result object; the line before it, which
starts with ``manifest``, holds what a noisy run is diagnosed with.
Exit codes: 0 ok, 2 the run could not complete, 3 a wrong answer or a
lost acked write (no result line in either case).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Timed restarts of the primary after the measured sequence, each on
#: the same data dir; ``recovery_s`` is their median.
RESTARTS = 5

UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_rps": "1/s",
    "write_p50_ms": "ms",
    "write_rps": "1/s",
    "lag_p50_ms": "ms",
    "recovery_s": "s",
    "rss_mb": "MB",
    "space_amp": "ratio",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (best of three): a slow
    run with a slow calibration is the host's fault, not the code's."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - started)
    return best


def source_digest(src_dir: str) -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(src_dir)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def end_to_end(workload, run_dir: str, src_dir: str) -> Dict[str, object]:
    """Three set-ups, the measured sequence after the second, then
    :data:`RESTARTS` restarts; returns metrics and manifest."""
    from cluster import Cluster, dir_bytes
    from drive import Runner, live_state_bytes, status_counter
    from stats import summary

    def set_up_only(name: str) -> float:
        cluster = Cluster(os.path.join(run_dir, name), src_dir)
        try:
            return Runner(workload, cluster).setup()
        finally:
            cluster.teardown()

    # ``setup_s`` is the median of three set-ups spread over the run —
    # throw-away clusters before and after the measured one — because
    # the host's speed drifts over tens of seconds.
    setups: List[float] = [set_up_only("setup-before")]
    cluster = Cluster(os.path.join(run_dir, "measured"), src_dir)
    runner = Runner(workload, cluster)
    recoveries: List[float] = []
    replayed: List[int] = []
    try:
        setups.append(runner.setup())
        measured_s = runner.measure()
        pool = cluster.health().get("pool") or {}
        compactions = status_counter(cluster.status(), "store.compactions")
        rss_kb = cluster.hwm_kb()
        cluster.stop_follower()
        for _ in range(RESTARTS):
            recoveries.append(cluster.restart_primary())
            recovery = (cluster.health().get("store") or {}).get("recovery")
            replayed.append((recovery or {}).get("records_replayed"))
            runner.verify_durable()
        data_dir = cluster.primary_data_dir
        space_amp = dir_bytes(data_dir) / live_state_bytes(workload)
    finally:
        cluster.teardown()
    runner.verify_store(data_dir)
    setups.append(set_up_only("setup-after"))
    tallies = runner.tallies
    reads, writes = tallies["read"], tallies["write"]
    probes = tallies["probe"]
    metrics = {
        "setup_s": statistics.median(setups),
        "read_p50_ms": statistics.median(reads.latencies_ms),
        "read_rps": reads.ok / measured_s,
        "write_p50_ms": statistics.median(writes.latencies_ms),
        "write_rps": writes.ok / measured_s,
        "lag_p50_ms": statistics.median(probes.latencies_ms),
        "recovery_s": statistics.median(recoveries),
        "rss_mb": rss_kb / 1024.0,
        "space_amp": space_amp,
    }
    samples = {
        "setup_s": len(setups),
        "read_p50_ms": len(reads.latencies_ms),
        "read_rps": reads.ok,
        "write_p50_ms": len(writes.latencies_ms),
        "write_rps": writes.ok,
        "lag_p50_ms": len(probes.latencies_ms),
        "recovery_s": len(recoveries),
        "rss_mb": 1,
        "space_amp": 1,
    }
    manifest = {
        "pool.recycles": pool.get("recycles"),
        "pool.recycle_reasons": pool.get("recycle_reasons"),
        "store.compactions": compactions,
        "store.records_replayed": replayed,
        "measured_s": measured_s,
        "setups_s": setups,
        "recoveries_s": recoveries,
        "latency_ms": {
            kind: summary(t.latencies_ms) for kind, t in tallies.items()
        },
        "operations": {kind: t.to_dict() for kind, t in tallies.items()},
        "samples": samples,
    }
    return {
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
        "attempted": sum(t.attempted for t in tallies.values()),
        "failed": sum(t.failed for t in tallies.values()),
        "manifest": manifest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "repro", "__init__.py")):
        print(
            f"error: no repro sources under {src_dir}; run from the root "
            "of a checkout", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src_dir)

    import gen
    from cluster import BenchError
    from drive import WrongAnswer

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    calibration_before = calibrate()
    workload = gen.WORKLOADS[args.workload](args.seed, args.seconds)
    run_dir = os.path.join(
        root, ".bench_run",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}",
    )
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.trace:
            import layers

            result = layers.traced(workload, run_dir, src_dir)
        else:
            result = end_to_end(workload, run_dir, src_dir)
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 3
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(run_dir, ignore_errors=True)
    from cluster import SERVE_FLAGS

    manifest = dict(
        result["manifest"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        source_digest=source_digest(src_dir),
        served_flags=list(SERVE_FLAGS) + ["--telemetry", "DIR",
                                          "--data-dir", "DIR"],
        served_env={"PYTHONHASHSEED": "0"},
        calibration_s={"before": calibration_before,
                       "after": calibrate()},
    )
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
