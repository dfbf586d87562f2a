"""Shared experiment machinery.

Every experiment runs a set of named designs over a workload suite with
*paired traces*: the trace for a workload is generated once (it depends
only on cache capacity, which all designs share) and replayed against
every design.

Execution routes through :mod:`repro.exec`: each (design, workload)
pair becomes a :class:`~repro.exec.JobKey`, warm keys are served from
the content-addressed result store, and cold keys run in parallel on
``Settings.jobs`` workers (by default every CPU this process may use).
Parallel replay is bit-identical to serial because trace generation is
seeded per key.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.accord import AccordDesign
from repro.errors import WorkloadError
from repro.exec import Executor, JobKey, ResultStore, usable_cpus
from repro.params.system import SystemConfig, scaled_system
from repro.sim.runner import (
    geometric_mean,
    mean_hit_rate,
    mean_prediction_accuracy,
    speedups_vs_baseline,
)
from repro.sim.system import RunResult
from repro.verify.shadow import DEFAULT_VERIFY_ENGINE
from repro.workloads.spec import get_workload, is_mix, main_suite

DEFAULT_SCALE = 1.0 / 128.0


@dataclass
class Settings:
    """Knobs shared by all experiments."""

    num_accesses: int = 200_000
    warmup: float = 0.5
    seed: int = 7
    scale: float = DEFAULT_SCALE
    suite: List[str] = field(default_factory=main_suite)
    # Worker processes (--jobs); 1 runs every job inline.
    jobs: int = field(default_factory=usable_cpus)
    results_dir: Optional[str] = None
    use_store: bool = True
    # Demand reads per phase-metrics sample (--epoch-metrics); None
    # disables phase-resolved recording.
    epoch: Optional[int] = None
    # Transient-failure / dead-worker retry budget per job (--retries).
    retries: int = 1
    # Per-job wall-clock watchdog in seconds (--timeout); None disables.
    # Only enforced on the parallel path, where a stuck worker can be
    # killed and its job rescheduled.
    timeout: Optional[float] = None
    # Drive-engine request (--engine); results are engine-invariant.
    engine: str = "auto"
    # --engine-strict: error instead of falling back when the requested
    # engine cannot drive a design exactly.
    engine_strict: bool = False
    # Pack same-trace jobs into shared-trace batches with the fused
    # multi-config kernel (--no-batch disables). Results are
    # bit-identical either way; batching only changes wall-clock.
    batch: bool = True
    # Shadow-verification sampling fraction (--verify-fraction): this
    # share of executed jobs is re-run on the reference engine and the
    # result digests compared (see repro.verify). 0 disables.
    verify_fraction: float = 0.0
    # Reference engine for shadow verification and `repro audit`
    # recomputes (--verify-engine): one of VERIFY_ENGINES.
    verify_engine: str = DEFAULT_VERIFY_ENGINE

    def quick(self) -> "Settings":
        """A reduced configuration for smoke tests and CI."""
        return replace(
            self,
            num_accesses=40_000,
            suite=["soplex", "libq", "mcf", "sphinx"],
        )

    def make_executor(self, progress=None, journal=None) -> Executor:
        """Executor honouring this configuration's resilience knobs."""
        store = ResultStore(self.results_dir) if self.use_store else None
        return Executor(
            jobs=self.jobs,
            store=store,
            retries=self.retries,
            progress=progress,
            timeout=self.timeout,
            journal=journal,
            verify_fraction=self.verify_fraction,
            verify_engine=self.verify_engine,
            batch=self.batch,
        )


def _parse_workloads(text: str, parser: argparse.ArgumentParser) -> List[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        parser.error("--workloads: no workload names given")
    for name in names:
        if is_mix(name):
            continue
        try:
            get_workload(name)
        except WorkloadError as exc:
            parser.error(f"--workloads: {exc}")
    return names


def add_settings_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the flags shared by every experiment (and ``sweep``)."""
    parser.add_argument("--accesses", type=int, default=None,
                        help="requests per workload trace")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="small suite / short traces for a fast check")
    parser.add_argument("--workloads", type=str, default=None,
                        help="comma-separated workload subset "
                             "(default: the experiment's suite)")
    parser.add_argument("--scale", type=float, default=None,
                        help="system scale factor in (0, 1] "
                             "(default 1/128: 32MB cache)")
    parser.add_argument("--jobs", "-j", type=int, default=usable_cpus(),
                        help="worker processes (default: every CPU this "
                             "process may use; 1 = serial)")
    parser.add_argument("--results-dir", type=str, default=None,
                        help="result-store directory "
                             "(default: $REPRO_RESULTS_DIR or ~/.cache/repro)")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the on-disk result store")
    parser.add_argument("--epoch-metrics", type=int, default=None,
                        metavar="N", dest="epoch_metrics",
                        help="record phase-resolved metrics every N demand "
                             "reads (default: disabled)")
    parser.add_argument("--retries", type=int, default=1,
                        help="per-job retry budget for transient failures "
                             "and dead workers (default 1; 0 = fail fast)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="per-job wall-clock timeout in seconds; a stuck "
                             "worker is killed and the job rescheduled "
                             "(parallel runs only; default: none)")
    from repro.sim.engines import ENGINE_NAMES
    from repro.verify.shadow import VERIFY_ENGINES

    parser.add_argument("--engine", type=str, default="auto",
                        choices=ENGINE_NAMES,
                        help="drive engine: auto picks the fastest exact "
                             "engine per design (vector kernel, sparse "
                             "replay kernel for the GWS family, batched "
                             "stream loop, or per-access reference loop); "
                             "results are identical under every engine")
    parser.add_argument("--engine-strict", action="store_true",
                        dest="engine_strict",
                        help="error instead of falling back when the "
                             "requested --engine cannot drive a design "
                             "exactly")
    parser.add_argument("--no-batch", action="store_true", dest="no_batch",
                        help="run every job individually instead of packing "
                             "same-trace jobs into fused-kernel batches "
                             "(results are bit-identical; batching only "
                             "changes wall-clock)")
    parser.add_argument("--verify-fraction", type=float, default=0.0,
                        metavar="F", dest="verify_fraction",
                        help="shadow-verify this fraction of executed jobs "
                             "against a reference-engine re-run (sampled "
                             "deterministically by job digest; mismatches "
                             "are quarantined, the offending engine is "
                             "circuit-broken, and the sweep heals from the "
                             "reference result; default 0: disabled)")
    parser.add_argument("--verify-engine", type=str,
                        default=DEFAULT_VERIFY_ENGINE,
                        choices=VERIFY_ENGINES, dest="verify_engine",
                        help="reference engine for shadow verification "
                             f"(default: {DEFAULT_VERIFY_ENGINE})")


def settings_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> Settings:
    """Build Settings from parsed common flags.

    ``--quick`` applies first; explicitly passed flags always win over
    the quick defaults (so ``--quick --accesses 100000`` runs the quick
    suite with 100k accesses).
    """
    settings = Settings()
    if args.quick:
        settings = settings.quick()
    if args.accesses is not None:
        if args.accesses <= 0:
            parser.error("--accesses must be positive")
        settings = replace(settings, num_accesses=args.accesses)
    if args.seed is not None:
        settings = replace(settings, seed=args.seed)
    if args.scale is not None:
        if not 0.0 < args.scale <= 1.0:
            parser.error("--scale must be in (0, 1]")
        settings = replace(settings, scale=args.scale)
    if args.workloads is not None:
        settings = replace(settings, suite=_parse_workloads(args.workloads, parser))
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.epoch_metrics is not None and args.epoch_metrics <= 0:
        parser.error("--epoch-metrics must be positive")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if not 0.0 <= args.verify_fraction <= 1.0:
        parser.error("--verify-fraction must be in [0, 1]")
    return replace(
        settings,
        jobs=args.jobs,
        results_dir=args.results_dir,
        use_store=not args.no_store,
        epoch=args.epoch_metrics,
        retries=args.retries,
        timeout=args.timeout,
        engine=args.engine,
        engine_strict=args.engine_strict,
        batch=not args.no_batch,
        verify_fraction=args.verify_fraction,
        verify_engine=args.verify_engine,
    )


def parse_args(description: str, argv: Optional[Sequence[str]] = None) -> Settings:
    """Common experiment CLI; see :func:`add_settings_arguments`."""
    parser = argparse.ArgumentParser(description=description)
    add_settings_arguments(parser)
    args = parser.parse_args(argv)
    return settings_from_args(args, parser)


class SuiteRunner:
    """Runs designs over the settings' suite with shared traces.

    All simulation goes through one :class:`~repro.exec.Executor`, so a
    runner transparently gains ``-j`` parallelism and warm-store
    restarts; per-label results are additionally memoized in-process as
    before.
    """

    def __init__(self, settings: Settings):
        self.settings = settings
        # Workload footprints scale with the cache; subclasses may pin
        # them elsewhere (Table VIII). Jobs get their traces from
        # repro.exec.jobs, which generates each one once per process.
        self.footprint_scale = settings.scale
        self.executor = settings.make_executor()
        self._results: Dict[str, Dict[str, RunResult]] = {}

    def config_for(self, design: AccordDesign) -> SystemConfig:
        return scaled_system(ways=design.ways, scale=self.settings.scale)

    def job_key(self, design: AccordDesign, workload: str) -> JobKey:
        return JobKey(
            design=design,
            workload=workload,
            num_accesses=self.settings.num_accesses,
            warmup=self.settings.warmup,
            seed=self.settings.seed,
            scale=self.settings.scale,
            footprint_scale=self.footprint_scale,
            epoch=self.settings.epoch,
            engine=self.settings.engine,
        )

    def _check_engine_strict(self, design: AccordDesign) -> None:
        """Fail fast under --engine-strict before any job is scheduled."""
        if not self.settings.engine_strict or self.settings.engine == "auto":
            return
        from repro.sim.engines import resolve_engine
        from repro.sim.system import build_dram_cache

        cache = build_dram_cache(
            design, self.config_for(design), seed=self.settings.seed
        )
        resolve_engine(
            cache, requested=self.settings.engine, strict=True, design=design
        )

    def run(self, label: str, design: AccordDesign) -> Dict[str, RunResult]:
        """Run (and memoize) one design across the suite."""
        if label not in self._results:
            if not self.settings.suite:
                raise WorkloadError("workload suite is empty")
            self._check_engine_strict(design)
            keys = [self.job_key(design, w) for w in self.settings.suite]
            resolved = self.executor.run(keys)
            self._results[label] = {
                key.workload: resolved[key] for key in keys
            }
        return self._results[label]

    # -- aggregates -------------------------------------------------------

    def mean_hit(self, label: str) -> float:
        return mean_hit_rate(self._results[label])

    def mean_wp(self, label: str) -> float:
        return mean_prediction_accuracy(self._results[label])

    def gmean_speedup(self, label: str, baseline_label: str) -> float:
        speedups = speedups_vs_baseline(
            self._results[label], self._results[baseline_label]
        )
        return geometric_mean(speedups.values())

    def speedups(self, label: str, baseline_label: str) -> Dict[str, float]:
        return speedups_vs_baseline(
            self._results[label], self._results[baseline_label]
        )


def baseline_design() -> AccordDesign:
    """The paper's baseline: direct-mapped, tags-with-data."""
    return AccordDesign(kind="direct", ways=1, label="Direct-mapped")
