"""One work unit of a benchmark workload, run in a fresh process.

``run.py`` starts this script once per unit (and once per extra set-up
sample), so no memo, trace, result or RSS carries over between units::

    python perfbench/worker.py --workload design-sweep --seed 7 \\
        --tmp .perfbench_tmp/unit-0 --unit 0 [--setup-only] [--trace] \\
        [--size tiny] [--spans FILE]

Protocol on stdout: the line ``READY`` once set-up is done (the parent
times set-up up to that line), then one JSON object as the last line.
With ``--setup-only`` the worker exits right after ``READY``.

Every unit checks its outputs after the timed phases: see
:func:`fingerprint_check` for the golden / loop-engine rule.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: The seed the golden fingerprints were recorded with, and the
#: simulator seed of ``design-sweep`` and ``service-mix``, whose workload
#: seed only draws their inputs (PIP grid, request sequence) so that
#: every seed does the same amount of simulation. ``paper-suite`` passes
#: its seed to the simulator (``Settings.seed``), like ``repro run --seed``.
DEFAULT_SEED = 7

QUICK_SUITE = ["soplex", "libq", "mcf", "sphinx"]

#: Workload sizes. ``tiny`` only exists for the self-test.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "paper-suite": {
        "full": {"accesses": None, "suite": None},
        "tiny": {"accesses": 3000, "suite": ["soplex", "mcf"]},
    },
    "design-sweep": {
        "full": {"accesses": 200_000, "workloads": QUICK_SUITE[:1],
                 "grid": 8, "warm_reps": 10},
        "tiny": {"accesses": 4000, "workloads": QUICK_SUITE[:1],
                 "grid": 3, "warm_reps": 3},
    },
    "service-mix": {
        "full": {"accesses": None, "requests": 1050,
                 "warm_designs": ["direct", "pws:2", "gws:2", "accord:2",
                                  "accord:4", "sws:8:2", "dueling:2",
                                  "parallel:2"]},
        "tiny": {"accesses": 3000, "requests": 40,
                 "warm_designs": ["direct", "pws:2", "accord:2"]},
    },
}

COLD_SHARE = 0.1     # service-mix: share of requests on unseen PIP values
CLIENTS = 2          # service-mix: closed-loop client threads
CHUNK_REQUESTS = 30  # service-mix: requests per timed piece
LOADS = 2            # service-mix: cold load sequences per unit
WARM_REPLAYS = 5     # service-mix: warm replays of the first sequence
LOOP_SAMPLES = 1     # jobs re-derived on the loop engine per run


class Unit:
    """State shared by the set-up, timed and check phases of one unit."""

    def __init__(self, args):
        self.args = args
        self.size = SIZES[args.workload][args.size]
        self.tmp = Path(args.tmp)
        self.recorder = None
        self.result: Dict[str, Any] = {}
        self.checks_attempted = 0
        self.checks_failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` checked operations; ``ok`` False fails them."""
        self.checks_attempted += count
        if not ok:
            self.checks_failed += count
            self.notes.append(what)


# -- shared helpers -----------------------------------------------------------


def fresh_dirs(tmp: Path) -> Dict[str, str]:
    """Empty store and trace-cache directories for this unit."""
    dirs = {"store": tmp / "store", "traces": tmp / "traces"}
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=False)
    os.environ["REPRO_RESULTS_DIR"] = str(dirs["store"])
    os.environ["REPRO_TRACE_DIR"] = str(dirs["traces"])
    return {name: str(path) for name, path in dirs.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def golden(workload: str) -> Optional[str]:
    try:
        return json.loads(GOLDEN_PATH.read_text())[workload]
    except (OSError, KeyError, ValueError):
        return None


def digest_of(items) -> str:
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()


def loop_rederive(unit: Unit, keyed: Dict[Any, str]) -> None:
    """Re-run a seeded sample of jobs on the ``loop`` reference engine.

    ``keyed`` maps JobKey -> the payload digest the timed phase
    produced. Runs outside every timed region.
    """
    from repro.exec.jobs import execute_job
    from repro.verify.digest import result_digest

    keys = sorted(keyed, key=lambda k: k.digest())
    rng = random.Random(f"loop-sample:{unit.args.seed}")
    for key in rng.sample(keys, min(LOOP_SAMPLES, len(keys))):
        reference = result_digest(execute_job(replace(key, engine="loop")))
        unit.check(
            reference == keyed[key],
            f"{key.display}: loop engine digest {reference[:12]} != "
            f"{keyed[key][:12]}",
        )


def fingerprint_check(unit: Unit, fingerprint: str, keyed) -> None:
    """Golden fingerprint at the default seed and size, else loop sample.

    The loop sample runs in unit 0 only; the parent checks that every
    unit's fingerprint is the same.
    """
    expected = golden(unit.args.workload)
    unit.result["fingerprint"] = fingerprint
    if (
        unit.args.seed == DEFAULT_SEED
        and unit.args.size == "full"
        and expected is not None
    ):
        unit.check(
            fingerprint == expected,
            f"fingerprint {fingerprint[:12]} != golden {expected[:12]}",
        )
    elif unit.args.unit == 0:
        loop_rederive(unit, keyed)


def stored_keys(store_root: str) -> Dict[Any, str]:
    """JobKey -> stored payload digest for every result-store entry."""
    from repro.service.jobspec import key_from_canonical

    out = {}
    for path in Path(store_root).glob("[0-9a-f][0-9a-f]/*.json"):
        record = json.loads(path.read_text())
        key = key_from_canonical(record["key"])
        out[key] = record["result"]["payload_digest"]
    return out


# -- paper-suite ----------------------------------------------------------------


def paper_setup(unit: Unit) -> None:
    import importlib

    from repro.experiments import EXPERIMENT_MODULES
    from repro.experiments.common import Settings

    unit.dirs = fresh_dirs(unit.tmp)
    # One piece per experiment, except that the ablations (half the
    # cold pass) run one section per call: run(settings, which=[name])
    # returns exactly that section of the full report.
    unit.pieces = []
    for name in EXPERIMENT_MODULES:
        module = importlib.import_module(f"repro.experiments.{name}")
        sections = getattr(module, "ABLATIONS", None)
        if sections is None:
            unit.pieces.append((name, module.run))
            continue
        for section in sections:
            unit.pieces.append((
                f"{name}:{section}",
                lambda settings, run=module.run, section=section:
                    run(settings, which=[section]),
            ))
    base = replace(Settings().quick(), seed=unit.args.seed)
    if unit.size["accesses"] is not None:
        base = replace(
            base, num_accesses=unit.size["accesses"], suite=unit.size["suite"]
        )
    # Experiments may mutate their settings (suite), so each call gets
    # its own copy, as each `repro run` invocation would.
    unit.settings = lambda: replace(base, suite=list(base.suite))


def paper_pass(unit: Unit, phase: str):
    """Run every experiment once; (per-experiment seconds, reports)."""
    reports, pieces = [], []
    for name, run in unit.pieces:
        start = time.perf_counter()
        if unit.recorder is not None:
            with unit.recorder.span(f"experiments.run.{phase}"):
                report = run(unit.settings())
        else:
            report = run(unit.settings())
        pieces.append(time.perf_counter() - start)
        reports.append(f"== {name}\n{report}")
    return pieces, reports


def paper_timed(unit: Unit) -> None:
    from repro.exec.store import ResultStore

    cold, unit.cold = paper_pass(unit, "cold")
    executed = len(ResultStore(unit.dirs["store"]))
    warm, unit.warm = paper_pass(unit, "warm")
    unit.result.update(cold=cold, warm=warm, jobs=executed)


def paper_check(unit: Unit) -> None:
    for cold, warm in zip(unit.cold, unit.warm):
        unit.check(cold == warm, f"warm report differs: {cold.splitlines()[0]}")
    fingerprint_check(
        unit, digest_of(unit.cold), stored_keys(unit.dirs["store"])
    )


# -- design-sweep -------------------------------------------------------------------


def sweep_setup(unit: Unit) -> None:
    from repro.exec.executor import Executor
    from repro.exec.jobs import JobKey, parse_design_spec
    from repro.params.system import scaled_system
    from repro.sim.bench import BENCH_DESIGNS
    from repro.sim.runner import TraceFactory

    unit.dirs = fresh_dirs(unit.tmp)
    unit.Executor = Executor
    bench = list(BENCH_DESIGNS)
    if unit.args.size == "tiny":
        bench = bench[::4]
    # A grid point equal to a bench design (pws at the default PIP)
    # would be the same job twice; draw until every point is new.
    rng = random.Random(f"design-sweep:{unit.args.seed}")
    grid: List[Any] = []
    while len(grid) < unit.size["grid"]:
        design = parse_design_spec(f"pws:2:pip={rng.uniform(0.2, 0.95):.3f}")
        if design not in bench and design not in grid:
            grid.append(design)
    designs = bench + sorted(grid, key=lambda d: d.pip)
    accesses = unit.size["accesses"]
    unit.keys = [
        JobKey(design=design, workload=workload, num_accesses=accesses,
               warmup=0.5, seed=DEFAULT_SEED)
        for workload in unit.size["workloads"]
        for design in designs
    ]
    # Trace generation is set-up: the sweep reads them from the
    # on-disk trace cache, as a `repro sweep` on a warm cache does.
    factory = TraceFactory(
        scaled_system(ways=1, scale=unit.keys[0].scale), accesses,
        DEFAULT_SEED,
    )
    for workload in unit.size["workloads"]:
        factory.trace_for(workload)


def sweep_timed(unit: Unit) -> None:
    from repro.exec.store import ResultStore

    store_root = unit.dirs["store"]
    done: List[float] = []

    def progress(_done, _total, _key, _source):
        done.append(time.perf_counter())

    executor = unit.Executor(
        jobs=1, batch=True, store=ResultStore(store_root), progress=progress
    )
    start = time.perf_counter()
    unit.cold = executor.run(unit.keys)
    done.append(time.perf_counter())
    # A warm re-resolve takes milliseconds, so it is repeated back to
    # back, each time with fresh executor and store objects over the
    # same directory, and reported as the fastest repetition.
    reps, unit.warm_runs = [], []
    for _ in range(unit.size["warm_reps"]):
        rep = time.perf_counter()
        unit.warm_runs.append(
            unit.Executor(jobs=1, batch=True, store=ResultStore(store_root))
            .run(unit.keys)
        )
        reps.append(time.perf_counter() - rep)
    unit.result.update(
        cold=[b - a for a, b in zip([start] + done, done)],
        warm=[min(reps)], jobs=len(unit.keys),
    )


def sweep_check(unit: Unit) -> None:
    from repro.verify.digest import result_digest

    keyed = {key: result_digest(unit.cold[key]) for key in unit.keys}
    for run in unit.warm_runs:
        same = all(result_digest(run[key]) == keyed[key] for key in unit.keys)
        unit.check(same, "warm re-resolve returned different payloads",
                   count=len(unit.keys))
    unit.check(len(unit.cold) == len(unit.keys), "cold sweep lost jobs",
               count=len(unit.keys))
    fingerprint_check(unit, digest_of(sorted(keyed.values())), keyed)


# -- service-mix --------------------------------------------------------------------


def start_daemon(unit: Unit) -> None:
    """Launch the daemon and block on its ready line (no polling)."""
    cmd = [sys.executable, str(HERE / "daemon.py"),
           "--results-dir", unit.dirs["store"],
           "--report", str(unit.tmp / "daemon.json")]
    if unit.args.trace:
        cmd += ["--trace"]
        if unit.args.spans:
            cmd += ["--spans", unit.args.spans + ".daemon"]
    # The daemon shuts down when its stdin closes: on stop_daemon, and
    # when this worker dies, so it can never outlive the benchmark.
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    unit.daemon = proc
    unit.daemon_log: List[str] = []
    marker = "listening on http://"
    for line in proc.stderr:
        unit.daemon_log.append(line)
        if marker in line:
            address = line.split(marker, 1)[1].split()[0]
            unit.port = int(address.rsplit(":", 1)[1])
            break
    else:
        raise RuntimeError("daemon exited before it was ready:\n"
                           + "".join(unit.daemon_log))
    # Keep draining stderr so the daemon never blocks on a full pipe.
    unit.drain = threading.Thread(
        target=lambda: unit.daemon_log.extend(proc.stderr), daemon=True
    )
    unit.drain.start()


def stop_daemon(unit: Unit) -> Dict[str, Any]:
    proc = unit.daemon
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    unit.drain.join(timeout=10)
    try:
        return json.loads((unit.tmp / "daemon.json").read_text())
    except (OSError, ValueError):
        raise RuntimeError("daemon left no report:\n" + "".join(unit.daemon_log))


def service_spec(unit: Unit, design: str, workload: str) -> Dict[str, Any]:
    spec = {"kind": "run", "designs": [design], "workloads": [workload],
            "quick": True, "seed": DEFAULT_SEED}
    if unit.size["accesses"] is not None:
        spec["accesses"] = unit.size["accesses"]
    return spec


def service_setup(unit: Unit) -> None:
    from repro.exec.jobs import parse_design_spec
    from repro.service.client import ServiceClient
    from repro.service.jobspec import expand_spec

    unit.dirs = fresh_dirs(unit.tmp)
    start_daemon(unit)
    unit.client = ServiceClient(port=unit.port, timeout=120.0)
    # Pre-populate the store through the service, as a user's earlier
    # sweep would; this also generates every trace the load touches.
    sweep = {"kind": "sweep", "designs": unit.size["warm_designs"],
             "workloads": QUICK_SUITE, "quick": True, "seed": DEFAULT_SEED}
    if unit.size["accesses"] is not None:
        sweep["accesses"] = unit.size["accesses"]
    unit.client.submit(sweep)
    # Seeded order, fixed mix: exactly COLD_SHARE of the requests are
    # cold, spread evenly over the workloads, and warm requests cycle
    # evenly over the pre-populated keys, so every seed does the same
    # amount of work. The LOADS load sequences differ only in their
    # cold PIP values, so position i costs the same in each of them.
    rng = random.Random(f"service-mix:{unit.args.seed}")
    total = unit.size["requests"]
    cold_at = sorted(rng.sample(range(total), round(total * COLD_SHARE)))
    # Unseen PIP values: none repeats or equals the warm pws:2 design.
    taken = {parse_design_spec("pws:2").pip}
    pips: List[float] = []
    while len(pips) < LOADS * len(cold_at):
        pip = round(rng.uniform(0.2, 0.95), 4)
        if pip not in taken:
            taken.add(pip)
            pips.append(pip)
    warm = [(d, w) for d in unit.size["warm_designs"] for w in QUICK_SUITE]
    warm = [warm[i % len(warm)] for i in range(total - len(cold_at))]
    rng.shuffle(warm)
    cold_workloads = [QUICK_SUITE[i % len(QUICK_SUITE)]
                      for i in range(len(cold_at))]
    rng.shuffle(cold_workloads)
    sequence = dict(zip(cold_at, cold_workloads))
    unit.loads = []
    for load in range(LOADS):
        load_pips = iter(pips[load * len(cold_at):(load + 1) * len(cold_at)])
        warm_left = iter(warm)
        requests = []
        for index in range(total):
            if index in sequence:
                design = f"pws:2:pip={next(load_pips)}"
                workload = sequence[index]
            else:
                design, workload = next(warm_left)
            spec = service_spec(unit, design, workload)
            requests.append((spec, expand_spec(spec)[0][0]))
        unit.loads.append(requests)


def closed_loop(unit: Unit, requests, phase: str):
    """Send every request once; (per-chunk seconds, per-request records).

    CLIENTS threads run a closed loop over one chunk of CHUNK_REQUESTS
    consecutive requests at a time and meet at the chunk's end, so a
    chunk is exactly the same work in every unit and repeat.
    """
    from repro.errors import ReproError

    records: List[Optional[tuple]] = [None] * len(requests)

    def client_loop(cursor, lock):
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            spec, key = requests[index]
            sent = time.perf_counter()
            try:
                if unit.recorder is not None:
                    cls = "cold" if phase == "cold" and "pip=" in \
                        spec["designs"][0] else "warm"
                    with unit.recorder.span(
                        f"service.client.ServiceClient.submit.{cls}"
                    ):
                        events = unit.client.submit(spec)
                else:
                    events = unit.client.submit(spec)
                event = events.get(key.digest())
                error = None if event is not None else "no result event"
            except (ReproError, OSError) as exc:
                event, error = None, f"{type(exc).__name__}: {exc}"
            records[index] = (time.perf_counter() - sent, event, error)

    chunks = []
    for first in range(0, len(requests), CHUNK_REQUESTS):
        last = min(first + CHUNK_REQUESTS, len(requests))
        cursor, lock = iter(range(first, last)), threading.Lock()
        threads = [
            threading.Thread(target=client_loop, args=(cursor, lock))
            for _ in range(CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        chunks.append(time.perf_counter() - start)
    return chunks, records


def service_timed(unit: Unit) -> None:
    loads = [closed_loop(unit, requests, "cold") for requests in unit.loads]
    replays = [
        closed_loop(unit, unit.loads[0], "warm") for _ in range(WARM_REPLAYS)
    ]
    # Same-position chunks and requests are the same work in every load
    # (and replay): keep each one's fastest.
    unit.result.update(
        cold=[min(chunk) for chunk in zip(*(c for c, _ in loads))],
        warm=[min(chunk) for chunk in zip(*(c for c, _ in replays))],
        latency_ms=[
            min(r[0] for r in same) * 1000.0
            for same in zip(*(records for _, records in loads))
        ],
        jobs=len(unit.loads[0]),
    )
    unit.answered = [
        (requests, records)
        for requests, (_, records) in zip(unit.loads, loads)
    ] + [(unit.loads[0], records) for _, records in replays]


def service_check(unit: Unit) -> None:
    from repro.exec.executor import Executor
    from repro.sim.system import RunResult
    from repro.verify.digest import result_digest

    metrics = unit.client.metrics()
    unit.result["service_counters"] = metrics["counters"]
    report = stop_daemon(unit)
    unit.result["peak_rss_mb"] = report["peak_rss_kb"] / 1024.0
    unit.result["daemon_layers"] = report["layers"]
    unit.result["daemon_spans"] = report["spans"]
    keys = list({key: None for load in unit.loads for _spec, key in load})
    local = Executor(jobs=1, batch=True).run(keys)
    keyed = {key: result_digest(local[key]) for key in keys}
    for requests, records in unit.answered:
        for (_spec, key), (_latency, event, error) in zip(requests, records):
            if event is None:
                unit.check(False, f"{key.display}: {error}")
                continue
            payload = event["result"]
            served = result_digest(RunResult.from_dict(payload))
            unit.check(
                payload.get("payload_digest") == served == keyed[key],
                f"{key.display}: served digest {served[:12]} != in-process "
                f"{keyed[key][:12]}",
            )
    fingerprint_check(
        unit, digest_of(sorted(f"{k.digest()}:{d}" for k, d in keyed.items())),
        keyed,
    )


WORKLOADS = {
    "paper-suite": (paper_setup, paper_timed, paper_check),
    "design-sweep": (sweep_setup, sweep_timed, sweep_check),
    "service-mix": (service_setup, service_timed, service_check),
}


def install_tracing(unit: Unit) -> None:
    """Wrap every layer entry point (imports first, so bindings exist)."""
    import layers
    import spans

    import repro.experiments.common  # noqa: F401  (binds exec + sim)
    import repro.service.client  # noqa: F401
    import repro.service.server  # noqa: F401

    unit.recorder = spans.SpanRecorder()
    spans.install(unit.recorder, layers.install_targets())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--unit", type=int, default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    for name in ("REPRO_FAULT_PLAN", "REPRO_ENGINE_DENY", "REPRO_TRACE_CACHE"):
        os.environ.pop(name, None)

    unit = Unit(args)
    setup, timed, check = WORKLOADS[args.workload]
    if args.trace:
        install_tracing(unit)
    try:
        setup(unit)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        timed(unit)
        if unit.recorder is not None:
            unit.recorder.enabled = False
        unit.result.setdefault("peak_rss_mb", peak_rss_mb())
        check(unit)
    finally:
        daemon = getattr(unit, "daemon", None)
        if daemon is not None and daemon.returncode is None:
            stop_daemon(unit)
    if unit.recorder is not None:
        unit.result["layers"] = unit.recorder.aggregate()
        unit.result["spans"] = len(unit.recorder.spans)
        if args.spans:
            unit.recorder.write(args.spans)
    unit.result.update(
        attempted=unit.checks_attempted, failed=unit.checks_failed,
        notes=unit.notes[:20],
    )
    print(json.dumps(unit.result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
