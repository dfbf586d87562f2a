"""Shared experiment machinery.

Every experiment runs a set of named designs over a workload suite with
*paired traces*: the trace for a workload is generated once (it depends
only on cache capacity, which all designs share) and replayed against
every design.

Execution routes through :mod:`repro.exec`: :func:`run_matrix` turns an
experiment's whole design matrix into one grid of
:class:`~repro.exec.JobKey` objects and resolves it in one
``Executor.run``. Warm keys are served from the content-addressed
result store; cold keys run in parallel on ``Settings.jobs`` workers
(by default every CPU this process may use), same-trace jobs batched.
Parallel replay is bit-identical to serial because trace generation is
seeded per key.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.accord import AccordDesign
from repro.errors import WorkloadError
from repro.exec import Executor, JobKey, ResultStore, usable_cpus
from repro.exec.jobs import (
    GRID_ACCESSES,
    GRID_SCALE,
    GRID_SEED,
    GRID_WARMUP,
    QUICK_ACCESSES,
    QUICK_SUITE,
    Cell,
    job_grid,
    probe_strict_engines,
)
from repro.sim.system import RunResult
from repro.workloads.spec import get_workload, is_mix, main_suite


@dataclass
class Settings:
    """Knobs shared by all experiments."""

    num_accesses: int = GRID_ACCESSES
    warmup: float = GRID_WARMUP
    seed: int = GRID_SEED
    scale: float = GRID_SCALE
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

    def quick(self) -> "Settings":
        """A reduced configuration for smoke tests and CI."""
        return replace(
            self,
            num_accesses=QUICK_ACCESSES,
            suite=list(QUICK_SUITE),
        )

    def job_grid(
        self,
        matrix: Mapping[str, Cell],
        footprint_scale: Optional[float] = None,
    ) -> Dict[str, List[JobKey]]:
        """This configuration's keys for ``matrix`` over the suite.

        Under ``--engine-strict`` every design's engine request is
        probed first, so an ineligible design fails before any job runs.
        """
        grid = job_grid(
            matrix, self.suite,
            num_accesses=self.num_accesses, warmup=self.warmup,
            seed=self.seed, scale=self.scale,
            footprint_scale=footprint_scale,
            epoch=self.epoch, engine=self.engine,
        )
        if self.engine_strict:
            probe_strict_engines(key for keys in grid.values() for key in keys)
        return grid

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
    )


def parse_args(description: str, argv: Optional[Sequence[str]] = None) -> Settings:
    """Common experiment CLI; see :func:`add_settings_arguments`."""
    parser = argparse.ArgumentParser(description=description)
    add_settings_arguments(parser)
    args = parser.parse_args(argv)
    return settings_from_args(args, parser)


def run_matrix(
    settings: Settings,
    matrix: Mapping[str, Cell],
    footprint_scale: Optional[float] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run a design matrix over the suite in one ``Executor.run``.

    ``matrix`` maps row label -> design (or a (design, scale) cell, see
    :func:`~repro.exec.jobs.job_grid`); the result maps label ->
    workload -> :class:`RunResult`. Warm keys come from the result
    store, cold ones run on ``settings.jobs`` workers, batched by trace.

    Key order is dispatch order, so a matrix's first label touches
    every trace: the baseline goes first (in Table VIII, every size's
    baseline before any ACCORD cell). Each trace is then generated once
    and reaches the trace cache before a design on another worker asks
    for it; a worker that asks first generates it a second time.
    """
    if not settings.suite:
        raise WorkloadError("workload suite is empty")
    grid = settings.job_grid(matrix, footprint_scale)
    resolved = settings.make_executor().run(
        [key for keys in grid.values() for key in keys]
    )
    return {
        label: {key.workload: resolved[key] for key in keys}
        for label, keys in grid.items()
    }


def baseline_design() -> AccordDesign:
    """The paper's baseline: direct-mapped, tags-with-data."""
    return AccordDesign(kind="direct", ways=1, label="Direct-mapped")
