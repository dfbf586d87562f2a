"""Experiment runner: builds traces once, runs many designs over them.

The same trace object (same seed) is reused for every design so that
hit-rate and speedup comparisons between designs are paired, exactly as
a real simulator replaying one trace would be.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence

from repro.core.accord import AccordDesign
from repro.errors import WorkloadError
from repro.params.system import SystemConfig, scaled_system
from repro.sim.system import RunResult, Simulator
from repro.sim.trace import Trace
from repro.workloads.mixes import build_mix_trace
from repro.workloads.spec import get_workload, is_mix
from repro.workloads.trace_cache import TraceKey, shared_trace_cache

DEFAULT_ACCESSES = 150_000
DEFAULT_WARMUP = 0.3


class TraceFactory:
    """Builds and memoizes workload traces for one system scale.

    ``footprint_scale`` defaults to the config's geometry scale so that
    footprint/capacity ratios match the paper; cache-size sensitivity
    sweeps (Table VIII) pin it to the default-system scale while the
    cache capacity varies.

    Besides the in-process memo, built traces are shared across
    processes and sessions through the content-addressed on-disk cache
    (:mod:`repro.workloads.trace_cache`): a sweep's worker processes
    generate each trace once, ever, instead of once per worker. Disable
    with ``REPRO_TRACE_CACHE=0``.
    """

    def __init__(
        self,
        config: SystemConfig,
        num_accesses: int = DEFAULT_ACCESSES,
        seed: int = 7,
        footprint_scale: Optional[float] = None,
    ):
        self.config = config
        self.num_accesses = num_accesses
        self.seed = seed
        self.footprint_scale = (
            footprint_scale if footprint_scale is not None else config.scale
        )
        self._cache: Dict[str, Trace] = {}

    def trace_for(self, workload: str) -> Trace:
        trace = self._cache.get(workload)
        if trace is None:
            trace = self._build(workload)
            self._cache[workload] = trace
        return trace

    def _build(self, workload: str) -> Trace:
        capacity = self.config.dram_cache.capacity_bytes
        scale = self.footprint_scale
        disk = shared_trace_cache()
        key = None
        if disk is not None:
            key = TraceKey(
                workload=workload,
                capacity_bytes=capacity,
                num_accesses=self.num_accesses,
                seed=self.seed,
                footprint_scale=scale,
            )
            cached = disk.get(key)
            if cached is not None:
                return cached
        if is_mix(workload):
            trace = build_mix_trace(
                workload, capacity, self.num_accesses, seed=self.seed, scale=scale
            )
        else:
            spec = get_workload(workload).scaled(scale)
            from repro.workloads.synthetic import SyntheticWorkload

            generator = SyntheticWorkload(spec, capacity, seed=self.seed)
            trace = generator.generate(self.num_accesses)
        if disk is not None:
            disk.put(key, trace)
        if key is not None:
            # Tag even freshly generated traces with their content
            # address: engine plan memos keyed by cache_token then
            # recognize the same trace across factory instances.
            trace.cache_token = key.digest()
        return trace


def run_design(
    design: AccordDesign,
    workload: str,
    config: Optional[SystemConfig] = None,
    traces: Optional[TraceFactory] = None,
    num_accesses: int = DEFAULT_ACCESSES,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 7,
    epoch: Optional[int] = None,
    engine: str = "auto",
    engine_strict: bool = False,
) -> RunResult:
    """Run one design on one workload; convenience entry point.

    ``epoch`` enables phase-resolved metrics: per-epoch hit-rate /
    prediction-accuracy / NVM-traffic samples on ``RunResult.phases``.
    ``engine`` selects the drive strategy (:mod:`repro.sim.engines`);
    results are engine-invariant.
    """
    config = config or scaled_system(ways=design.ways)
    traces = traces or TraceFactory(config, num_accesses, seed)
    trace = traces.trace_for(workload)
    simulator = Simulator(config, design, seed=seed)
    return simulator.run(
        trace, warmup_fraction=warmup, epoch=epoch,
        engine=engine, engine_strict=engine_strict,
    )


def run_suite(
    design: AccordDesign,
    workloads: Sequence[str],
    config: Optional[SystemConfig] = None,
    traces: Optional[TraceFactory] = None,
    num_accesses: int = DEFAULT_ACCESSES,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 7,
    epoch: Optional[int] = None,
    engine: str = "auto",
) -> Dict[str, RunResult]:
    """Run one design across a workload suite, serially and unmemoized.

    Every workload's trace comes from one shared ``traces`` factory, so
    the runs are paired. For parallel or store-backed runs, build
    :class:`repro.exec.JobKey` objects and call
    ``repro.exec.Executor(...).run(keys)``.
    """
    if not workloads:
        raise WorkloadError("workload suite is empty")
    config = config or scaled_system(ways=design.ways)
    traces = traces or TraceFactory(config, num_accesses, seed)
    results: Dict[str, RunResult] = {}
    for workload in workloads:
        results[workload] = run_design(
            design, workload, config=config, traces=traces,
            num_accesses=num_accesses, warmup=warmup, seed=seed, epoch=epoch,
            engine=engine,
        )
    return results


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups)."""
    items = list(values)
    if not items:
        raise WorkloadError("geometric mean of an empty sequence")
    if any(v <= 0 for v in items):
        raise WorkloadError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def speedups_vs_baseline(
    results: Dict[str, RunResult], baseline: Dict[str, RunResult]
) -> Dict[str, float]:
    """Per-workload speedups of ``results`` relative to ``baseline``."""
    missing = set(results) - set(baseline)
    if missing:
        raise WorkloadError(f"baseline lacks workloads: {sorted(missing)}")
    return {
        name: result.speedup_over(baseline[name])
        for name, result in results.items()
    }


def gmean_speedup(
    results: Dict[str, RunResult], baseline: Dict[str, RunResult]
) -> float:
    """Geometric-mean speedup of ``results`` over ``baseline``."""
    return geometric_mean(speedups_vs_baseline(results, baseline).values())


def mean_hit_rate(results: Dict[str, RunResult]) -> float:
    """Arithmetic-mean hit rate across workloads (paper Tables VI/VII)."""
    if not results:
        raise WorkloadError("no results")
    return sum(r.hit_rate for r in results.values()) / len(results)


def mean_prediction_accuracy(results: Dict[str, RunResult]) -> float:
    """Arithmetic-mean way-prediction accuracy across workloads."""
    if not results:
        raise WorkloadError("no results")
    return sum(r.prediction_accuracy for r in results.values()) / len(results)
