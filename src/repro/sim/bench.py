"""Functional-simulator throughput benchmark (``python -m repro bench``).

Measures accesses simulated per wall-clock second for every benchmark
design variant, on whichever engine ``--engine`` resolves to (the
vector and replay kernels under ``auto``, the per-address reference
loop under ``--engine loop``). The 16 variants cover every design kind
plus the higher-associativity ACCORD and SWS configurations, so a
regression in any specialized code path (way-predicted lookup, SWS
candidate sets, the CA flow) shows up in its own row.

The JSON report (``BENCH_hotloop.json``) is self-describing::

    {
      "schema": 1,
      "workload": "soplex", "num_accesses": 40000, "seed": 7,
      "scale": 0.0078125, "warmup": 0.3, "repeats": 3,
      "designs": [
        {"design": "direct-1way", "kind": "direct", "ways": 1,
         "accesses_per_sec": ..., "elapsed_sec": ..., "hit_rate": ...,
         "result_digest": ...},
        ...
      ],
      "aggregate_accesses_per_sec": ...
    }

Per-design ``accesses_per_sec`` takes the best of ``repeats`` timed
runs (minimum wall time — the standard way to suppress scheduler
noise); the aggregate is total accesses over total best-run time.
Wall-clock numbers are machine-relative: compare a report only against
a baseline measured on comparable hardware (CI measures both sides on
the same runner class).
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.accord import AccordDesign
from repro.errors import ReproError
from repro.exec.jobs import GRID_SCALE, GRID_SEED
from repro.params.system import scaled_system
from repro.sim.engines import resolve_engine
from repro.sim.runner import DEFAULT_ACCESSES, DEFAULT_WARMUP, TraceFactory
from repro.sim.system import Simulator, build_dram_cache
from repro.verify.digest import result_digest

BENCH_SCHEMA_VERSION = 1

DEFAULT_WORKLOAD = "soplex"
DEFAULT_REPEATS = 3

#: The benchmark's 16 design variants: every kind at its canonical
#: associativity, plus the 4-way ACCORD and 4-hash SWS configurations
#: the paper evaluates. Shared with the fast-path equivalence tests so
#: "benchmarked" and "proven bit-identical" stay the same set.
BENCH_DESIGNS: Tuple[AccordDesign, ...] = (
    AccordDesign(kind="direct", ways=1),
    AccordDesign(kind="parallel", ways=2),
    AccordDesign(kind="serial", ways=2),
    AccordDesign(kind="unbiased", ways=2),
    AccordDesign(kind="pws", ways=2),
    AccordDesign(kind="gws", ways=2),
    AccordDesign(kind="accord", ways=2),
    AccordDesign(kind="accord", ways=4),
    AccordDesign(kind="sws", ways=8, hashes=2),
    AccordDesign(kind="sws", ways=8, hashes=4),
    AccordDesign(kind="dueling", ways=2),
    AccordDesign(kind="mru", ways=2),
    AccordDesign(kind="partial_tag", ways=2),
    AccordDesign(kind="perfect", ways=2),
    AccordDesign(kind="ideal", ways=2),
    AccordDesign(kind="ca", ways=1),
)


def run_bench(
    workload: str = DEFAULT_WORKLOAD,
    num_accesses: int = DEFAULT_ACCESSES,
    seed: int = GRID_SEED,
    scale: float = GRID_SCALE,
    warmup: float = DEFAULT_WARMUP,
    repeats: int = DEFAULT_REPEATS,
    designs: Sequence[AccordDesign] = BENCH_DESIGNS,
    engine: str = "auto",
) -> Dict[str, Any]:
    """Time every design on one trace; returns the JSON-ready report.

    ``engine`` requests a drive engine (:mod:`repro.sim.engines`);
    designs the requested engine cannot drive exactly fall back down
    the chain with a one-time warning, and each row records the engine
    that actually ran. Engine resolution happens on a probe cache
    outside the timed region.
    """
    if repeats < 1:
        raise ReproError("bench needs at least one repeat")
    factory = TraceFactory(scaled_system(ways=1, scale=scale), num_accesses, seed)
    trace = factory.trace_for(workload)
    rows: List[Dict[str, Any]] = []
    total_accesses = 0
    total_time = 0.0
    engine_totals: Dict[str, List[float]] = {}
    for design in designs:
        config = scaled_system(ways=design.ways, scale=scale)
        probe = build_dram_cache(design, config, seed=seed)
        # Resolve the engine once per design on the probe cache so
        # fallback warnings and plan eligibility checks stay outside
        # the timed region.
        engine_name = resolve_engine(
            probe, requested=engine, design=design
        ).name
        best = None
        best_result = None
        for _ in range(repeats):
            simulator = Simulator(config, design, seed=seed)
            start = time.perf_counter()
            result = simulator.run(
                trace, warmup_fraction=warmup, engine=engine_name
            )
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
                best_result = result
        rows.append(
            {
                "design": design.display_name,
                "kind": design.kind,
                "ways": design.ways,
                "engine": engine_name,
                "accesses_per_sec": len(trace) / best,
                "elapsed_sec": best,
                "hit_rate": best_result.hit_rate,
                "result_digest": result_digest(best_result),
            }
        )
        total_accesses += len(trace)
        total_time += best
        bucket = engine_totals.setdefault(engine_name, [0, 0.0])
        bucket[0] += len(trace)
        bucket[1] += best
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "workload": workload,
        "num_accesses": num_accesses,
        "seed": seed,
        "scale": scale,
        "warmup": warmup,
        "repeats": repeats,
        "engine": engine,
        "designs": rows,
        "aggregate_accesses_per_sec": total_accesses / total_time,
        # Sub-aggregates keyed by the engine that actually ran, so a
        # regression on one path cannot hide behind gains on another
        # in the single mixed aggregate (compare_to_baseline gates
        # each sub-aggregate when both reports carry them).
        "per_engine_accesses_per_sec": {
            name: accesses / elapsed
            for name, (accesses, elapsed) in sorted(engine_totals.items())
        },
    }


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable table for one :func:`run_bench` report."""
    lines = [
        f"Hot-loop throughput: {report['workload']}, "
        f"{report['num_accesses']} accesses, "
        f"best of {report['repeats']} (seed {report['seed']})",
        "",
        f"  {'design':<20} {'engine':>7} {'acc/s':>12} {'hit rate':>9}",
    ]
    for row in report["designs"]:
        lines.append(
            f"  {row['design']:<20} {row.get('engine', '-'):>7} "
            f"{row['accesses_per_sec']:>12,.0f} "
            f"{row['hit_rate']:>9.3f}"
        )
    lines.append("")
    for name, agg in report.get("per_engine_accesses_per_sec", {}).items():
        lines.append(f"  {name:>9}: {agg:,.0f} accesses/sec")
    lines.append(
        f"  aggregate: {report['aggregate_accesses_per_sec']:,.0f} accesses/sec"
    )
    return "\n".join(lines)


def load_report(path: str) -> Dict[str, Any]:
    """Read a report written by ``python -m repro bench --json``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read bench report {path}: {exc}") from exc
    if not isinstance(report, dict) or (
        "aggregate_accesses_per_sec" not in report
        and report.get("mode") != "sweep"
    ):
        raise ReproError(f"{path} is not a bench report")
    return report


def save_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare_hit_rates(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> Optional[str]:
    """None if per-design results match ``baseline`` exactly, else why.

    The engine-parity gate: a report run under one ``--engine`` must
    reproduce the reference-loop report's hit rate *byte-identically*
    per design (exact float equality — both sides round-trip through
    JSON's shortest-repr float encoding, so equality survives
    serialization). Where both rows carry a ``result_digest`` (reports
    from before it was recorded do not), the digests must match too,
    which covers every ``CacheStats`` field: prediction, probes,
    writebacks, not only the hit rate.
    """
    ours = {row["design"]: row for row in report.get("designs", [])}
    theirs = {row["design"]: row for row in baseline.get("designs", [])}
    if set(ours) != set(theirs):
        missing = sorted(set(ours) ^ set(theirs))
        return f"design sets differ (mismatched: {', '.join(missing)})"
    for name in sorted(ours):
        mine = float(ours[name]["hit_rate"])
        reference = float(theirs[name]["hit_rate"])
        if mine != reference:
            return (
                f"{name}: hit rate {mine!r} != baseline {reference!r} "
                f"(every engine must be bit-identical to the reference loop)"
            )
        mine = ours[name].get("result_digest")
        reference = theirs[name].get("result_digest")
        if mine is not None and reference is not None and mine != reference:
            return (
                f"{name}: result digest {mine} != baseline {reference} "
                f"(every engine must be bit-identical to the reference loop)"
            )
    return None


#: Config count of the sweep benchmark's same-trace design matrix.
SWEEP_CONFIGS = 16


def sweep_designs(configs: int = SWEEP_CONFIGS) -> Tuple[AccordDesign, ...]:
    """A PIP grid over 2-way PWS: the sweep benchmark's design matrix.

    Unlike :data:`BENCH_DESIGNS` (deliberately heterogeneous — every
    code path gets its own row), a *sweep* workload is homogeneous: the
    same design family across a parameter grid. All grid points share
    one fused-kernel signature, so the batched path evaluates the whole
    matrix in a single multi-config pass — the case the batching layer
    optimizes, and the one this benchmark sizes.
    """
    if configs < 2:
        raise ReproError("sweep bench needs at least 2 configs")
    designs = []
    for i in range(configs):
        pip = round(0.2 + 0.75 * i / (configs - 1), 6)
        designs.append(
            AccordDesign(
                kind="pws", ways=2, pip=pip, label=f"pws-pip{pip:g}"
            )
        )
    return tuple(designs)


def run_sweep_bench(
    workload: str = DEFAULT_WORKLOAD,
    num_accesses: int = DEFAULT_ACCESSES,
    seed: int = GRID_SEED,
    scale: float = GRID_SCALE,
    warmup: float = DEFAULT_WARMUP,
    repeats: int = DEFAULT_REPEATS,
    configs: int = SWEEP_CONFIGS,
) -> Dict[str, Any]:
    """Time a same-trace config matrix: per-job vs batched execution.

    Runs the :func:`sweep_designs` grid through an in-process
    :class:`~repro.exec.executor.Executor` twice — ``batch=False``
    (one-job tasks, one drive per job) and ``batch=True`` (same-trace
    tasks + the fused multi-config kernel) — and reports jobs per wall-clock second for
    both, their ratio, and whether every job's result was bit-identical
    across the two paths (it must be; a divergence raises). Store and
    journal are disabled so the timed region is pure execution. Both
    paths share the process-wide trace/plan memos; the first repeat
    warms them and the best-of-``repeats`` timing discards the
    difference, so the ratio isolates scheduling + kernel fusion.
    """
    from repro.exec.executor import Executor
    from repro.exec.jobs import JobKey

    if repeats < 1:
        raise ReproError("bench needs at least one repeat")
    designs = sweep_designs(configs)
    keys = [
        JobKey(
            design=design, workload=workload, num_accesses=num_accesses,
            warmup=warmup, seed=seed, scale=scale, epoch=None,
        )
        for design in designs
    ]

    def timed(batch: bool):
        executor = Executor(jobs=1, batch=batch)
        best = None
        results = None
        for _ in range(repeats):
            start = time.perf_counter()
            run = executor.run(keys)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
                results = run
        return best, results

    per_job_sec, per_job_results = timed(batch=False)
    batched_sec, batched_results = timed(batch=True)
    for key in keys:
        if (
            batched_results[key].to_dict()
            != per_job_results[key].to_dict()
        ):
            raise ReproError(
                f"batched sweep diverged from per-job execution on "
                f"{key.display} (results must be bit-identical)"
            )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "mode": "sweep",
        "workload": workload,
        "num_accesses": num_accesses,
        "seed": seed,
        "scale": scale,
        "warmup": warmup,
        "repeats": repeats,
        "configs": len(keys),
        "designs": [design.display_name for design in designs],
        "per_job_sec": per_job_sec,
        "batched_sec": batched_sec,
        "per_job_jobs_per_sec": len(keys) / per_job_sec,
        "batched_jobs_per_sec": len(keys) / batched_sec,
        "speedup": per_job_sec / batched_sec,
        "results_identical": True,
    }


def format_sweep_report(report: Dict[str, Any]) -> str:
    """Human-readable summary for one :func:`run_sweep_bench` report."""
    return "\n".join(
        [
            f"Batched sweep: {report['workload']}, "
            f"{report['configs']} configs x {report['num_accesses']} "
            f"accesses, best of {report['repeats']} "
            f"(seed {report['seed']})",
            "",
            f"  per-job:  {report['per_job_jobs_per_sec']:>8.2f} jobs/sec "
            f"({report['per_job_sec']:.3f}s)",
            f"  batched:  {report['batched_jobs_per_sec']:>8.2f} jobs/sec "
            f"({report['batched_sec']:.3f}s)",
            "",
            f"  speedup: {report['speedup']:.2f}x; results identical: "
            f"{report['results_identical']}",
        ]
    )


def compare_sweep_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float,
) -> Optional[str]:
    """None if the sweep ``report`` holds up against ``baseline``.

    The gate is on the *speedup ratio*, not on absolute jobs/s: the
    ratio is machine-relative on both sides of the division, so it
    transfers across runner classes the way wall-clock numbers do not.
    ``max_regression`` is a fraction of the baseline ratio (0.30 =
    fail when the batched-over-per-job speedup drops more than 30%).
    A report whose batched path fell behind per-job execution
    (speedup < 1) fails regardless of the baseline.
    """
    current = float(report["speedup"])
    if current < 1.0:
        return (
            f"batched sweep is slower than per-job execution "
            f"({current:.2f}x); batching must never lose"
        )
    reference = float(baseline["speedup"])
    floor = reference * (1.0 - max_regression)
    if current < floor:
        return (
            f"batched sweep speedup regressed: {current:.2f}x vs baseline "
            f"{reference:.2f}x (floor {floor:.2f}x at "
            f"{max_regression:.0%} tolerance)"
        )
    return None


def compare_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float,
) -> Optional[str]:
    """None if ``report`` is within tolerance of ``baseline``, else why.

    The gate is on aggregates: per-design numbers on small traces are
    too noisy to gate individually. ``max_regression`` is a fraction
    (0.30 = fail when aggregate throughput drops more than 30%).

    When both reports carry ``per_engine_accesses_per_sec``, every
    engine present in both is gated at the same tolerance — one mixed
    aggregate would let a large vector-path gain mask a stream- or
    replay-path collapse. Engines present on one side only (coverage
    moved between engines) are judged by the total alone.
    """
    current = float(report["aggregate_accesses_per_sec"])
    reference = float(baseline["aggregate_accesses_per_sec"])
    floor = reference * (1.0 - max_regression)
    if current < floor:
        return (
            f"aggregate throughput regressed: {current:,.0f} acc/s vs "
            f"baseline {reference:,.0f} acc/s "
            f"(floor {floor:,.0f} at {max_regression:.0%} tolerance)"
        )
    ours = report.get("per_engine_accesses_per_sec") or {}
    theirs = baseline.get("per_engine_accesses_per_sec") or {}
    for name in sorted(set(ours) & set(theirs)):
        current = float(ours[name])
        reference = float(theirs[name])
        floor = reference * (1.0 - max_regression)
        if current < floor:
            return (
                f"{name}-engine throughput regressed: {current:,.0f} acc/s "
                f"vs baseline {reference:,.0f} acc/s "
                f"(floor {floor:,.0f} at {max_regression:.0%} tolerance)"
            )
    return None
