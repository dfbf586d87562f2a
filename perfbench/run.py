"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper-suite --seed 7 \\
        --seconds 24 --trace 0

Run from the repository root. Every work unit runs in a fresh worker
process (``worker.py``) with its own empty result store and trace
cache, serially, so nothing carries over between units and nothing
runs beside the unit being measured. This parent only spawns workers,
times their set-up up to the ``READY`` line they print, and turns their
reports into the last stdout line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: timings from each piece
of work at its fastest over the units (identical repeats), ``setup_s``
as the median set-up. ``--trace 1`` runs one untraced and one traced
unit and reports the per-layer metrics of the traced one plus the
tracing overhead (traced minus untraced timed wall). See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-suite", "design-sweep", "service-mix")

#: (name, unit) of the end-to-end metrics, reported on every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Approximate seconds one unit of each workload measures; ``--seconds``
#: divided by this gives the number of units (at least two, so every
#: piece of work has a repeat to take the fastest of).
UNIT_SECONDS = {"paper-suite": 12.0, "design-sweep": 2.4, "service-mix": 12.0}

#: Set-up is sampled at least this many times per run (extra samples
#: come from workers that exit right after set-up).
SETUP_SAMPLES = 3

#: Hard limit on one worker process, well inside the run's 180 s.
WORKER_TIMEOUT = 150.0


class WorkerFailed(RuntimeError):
    pass


def spawn(args, tmp: Path, unit: int, *, setup_only: bool = False,
          trace: bool = False) -> Tuple[float, Dict[str, Any]]:
    """Run one worker; return (set-up seconds, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--tmp", str(tmp), "--unit", str(unit), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(out / f"spans-{args.workload}.jsonl")]
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
                break
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerFailed(
            f"{args.workload} worker (unit {unit}) exited with {code}"
        )
    if setup_only:
        return ready, {}
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{args.workload} worker (unit {unit}) printed no report")
    return ready, json.loads(lines[-1])


def percentile(samples: List[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def fastest(units: List[Dict[str, Any]], field: str) -> List[float]:
    """Per-piece minimum over units (pieces are identical work)."""
    return [min(piece) for piece in zip(*(unit[field] for unit in units))]


def end_to_end(units: List[Dict[str, Any]], setups: List[float]) -> Dict[str, float]:
    cold, warm = fastest(units, "cold"), fastest(units, "warm")
    if "latency_ms" in units[0]:
        latency = fastest(units, "latency_ms")
    else:  # batch work: each piece's completion time since the start
        done = 0.0
        latency = []
        for piece in cold:
            done += piece
            latency.append(done * 1000.0)
    for index, unit in enumerate(units):
        print(f"# unit {index}: cold {sum(unit['cold']):.4f} s, "
              f"warm {sum(unit['warm']):.4f} s, {unit['jobs']} jobs")
    print("# set-up samples: " + " ".join(f"{s:.4f}" for s in setups))
    print(f"# {len(units)} unit(s), {len(cold)} cold piece(s), "
          f"{len(latency)} latency sample(s)")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(cold),
        "warm_wall_s": sum(warm),
        "jobs_per_s": units[0]["jobs"] / sum(cold),
        "p50_ms": percentile(latency, 50),
        "p99_ms": percentile(latency, 99),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }


def timed_wall(report: Dict[str, Any]) -> float:
    return sum(report["cold"]) + sum(report["warm"])


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    agg = layers.merge_aggregates(
        [traced.get("layers", {}), traced.get("daemon_layers", {})]
    )
    values = layers.layer_values(agg, traced.get("service_counters", {}))
    values["trace.untraced_wall_s"] = timed_wall(untraced)
    values["trace.traced_wall_s"] = timed_wall(traced)
    values["trace.overhead_s"] = timed_wall(traced) - timed_wall(untraced)
    values["trace.spans"] = traced["spans"] + traced.get("daemon_spans", 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every unit (self-test only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            _, untraced = spawn(args, tmp / "untraced", 0)
            _, traced = spawn(args, tmp / "traced", 0, trace=True)
            reports = [untraced, traced]
            values = per_layer(untraced, traced)
            units = {n: u for n, u, _ in layers.per_layer_metrics()}
        else:
            count = max(2, round(args.seconds / UNIT_SECONDS[args.workload]))
            reports: List[Dict[str, Any]] = []
            setups = []
            for index in range(count):
                setup, report = spawn(args, tmp / f"unit-{index}", index)
                setups.append(setup)
                reports.append(report)
            for index in range(count, max(count, SETUP_SAMPLES)):
                setup, _ = spawn(args, tmp / f"setup-{index}", index,
                                 setup_only=True)
                setups.append(setup)
            values = end_to_end(reports, setups)
            units = dict(END_TO_END)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for report in reports:
        for note in report.get("notes", []):
            print(f"# check failed: {note}")
    # Units repeat identical work, so their outputs must agree too.
    fingerprints = sorted({r["fingerprint"] for r in reports})
    print(f"# output fingerprint(s): {' '.join(fingerprints)}")
    attempted += 1
    failed += len(fingerprints) != 1
    print(f"# fail_rate {failed / attempted:.6f} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
