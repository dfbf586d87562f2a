"""Batched same-trace execution for sweeps.

A sweep of N configs over one workload names N independent
:class:`~repro.exec.jobs.JobKey`\\ s, but the jobs share almost all of
their fixed cost: the trace bytes, the per-geometry split columns, and
the engine's sorted step plan. This module groups a sweep's cold keys
by (trace, geometry) — :func:`batch_group` — and packs each group into
:class:`BatchTask` work items that a single worker executes with *one*
trace and *one* plan, fusing vectorizable same-signature configs into
a single multi-config kernel pass
(:mod:`repro.sim.engines.multi`).

Batching is strictly an execution-shape optimization: store entries,
journal lines, shadow verification, and progress all stay at
per-``JobKey`` granularity (the executor absorbs a batch result member
by member), and every member's ``RunResult`` is bit-identical to the
per-job path — :func:`run_batch` replicates
:meth:`repro.sim.system.Simulator.run` exactly, per member, around the
shared drive.

Zero-copy trace sharing rides along: the executor publishes each
group's column arrays once per host into a
:mod:`multiprocessing.shared_memory` segment named by the trace's
content address (:func:`publish_trace`), and workers attach
(:func:`attach_trace`) instead of re-reading or regenerating the trace
per job. A worker that cannot attach (segment unlinked, shm
unavailable) falls back to the per-process trace factory — the shared
disk cache makes that a read, not a regeneration — so shared memory is
never load-bearing for correctness.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, ExecutionError, SimulationError
from repro.exec.faults import SITE_ENGINE_RESULT, SITE_JOB, fault_point
from repro.exec.jobs import JobKey, _trace_factory
from repro.exec.resilience import complete_claim, write_claim
from repro.params.system import scaled_system
from repro.sim.engines import TraceStream, resolve_engine, serial_segments
from repro.sim.engines.multi import (
    FusedRun,
    drive_fused,
    fusion_plan,
    plan_signature,
)
from repro.sim.system import RunResult, build_dram_cache
from repro.sim.timing_model import IntervalTimingModel
from repro.sim.trace import Trace
from repro.workloads.trace_cache import TraceKey

#: Largest number of jobs packed into one worker task. Bounds both the
#: fused kernel's config axis (memory scales with K × touched sets ×
#: ways) and the work lost when a batch has to be retried whole.
DEFAULT_BATCH_SIZE = 16


def batch_group(key: JobKey) -> Tuple:
    """Grouping identity: jobs in one group share trace AND geometry.

    The trace half mirrors :func:`trace_key_for` (workload + the knobs
    feeding generation); the geometry half is the design's way count
    (with ``scale`` fixed, ways determine the set layout and therefore
    the split columns and step plan). ``warmup``/``epoch`` ride along
    so one batch shares its measurement plan too.
    """
    return (
        key.workload, key.scale, key.num_accesses, key.seed,
        key.footprint_scale, key.design.ways, key.warmup, key.epoch,
    )


def trace_key_for(key: JobKey) -> TraceKey:
    """The :class:`TraceKey` a job's trace is cached (and shared) under.

    Must mirror :func:`repro.exec.jobs._trace_factory` +
    :meth:`repro.sim.runner.TraceFactory._build`: traces are generated
    against the 1-way scaled system's cache capacity.
    """
    config = scaled_system(ways=1, scale=key.scale)
    footprint = (
        key.footprint_scale
        if key.footprint_scale is not None
        else config.scale
    )
    return TraceKey(
        workload=key.workload,
        capacity_bytes=config.dram_cache.capacity_bytes,
        num_accesses=key.num_accesses,
        seed=key.seed,
        footprint_scale=footprint,
    )


@dataclass(frozen=True)
class TraceRef:
    """Locator for a trace published to a shared-memory segment.

    The segment holds ``length`` int64 addresses followed by ``length``
    uint8 write flags. ``token`` is the trace's content address (the
    :class:`TraceKey` digest) — it keys the per-worker attach memo and
    the engines' plan memos, so every job of a sweep that shares a
    trace also shares one plan per (worker, geometry).
    """

    shm_name: str
    length: int
    trace_name: str
    instructions_per_access: float
    token: str


@dataclass(frozen=True)
class BatchTask:
    """A packed worker task: same-group jobs executed over one trace.

    Mirrors :class:`JobKey`'s ``digest()``/``display`` surface so
    claims, retries, the watchdog and pool-break attribution handle all
    three item kinds uniformly. The digest is derived from the member
    digests, so a batch's claim marker names exactly its jobs.
    """

    jobs: Tuple[JobKey, ...]
    trace_ref: Optional[TraceRef] = None

    def __post_init__(self):
        if len(self.jobs) < 2:
            raise ConfigError(
                f"a batch needs at least 2 jobs, got {len(self.jobs)}"
            )

    def digest(self) -> str:
        cached = self.__dict__.get("_digest")
        if cached is None:
            payload = "\n".join(job.digest() for job in self.jobs)
            cached = "batch-" + hashlib.sha256(
                payload.encode("ascii")
            ).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def display(self) -> str:
        first = self.jobs[0]
        return (
            f"{first.workload} x{len(self.jobs)} designs "
            f"[batch {self.digest()[6:14]}]"
        )


def plan_batches(
    keys: Sequence[JobKey], batch_size: int = DEFAULT_BATCH_SIZE
) -> List:
    """Pack same-group jobs into :class:`BatchTask` items.

    Returns a mixed list of work items in first-seen group order:
    groups of one stay plain :class:`JobKey` items (nothing to share),
    larger groups are chunked to ``batch_size``. Deduplication is the
    caller's concern (the executor already runs on unique keys).
    """
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    groups: Dict[Tuple, List[JobKey]] = {}
    for key in keys:
        groups.setdefault(batch_group(key), []).append(key)
    items: List = []
    for members in groups.values():
        if len(members) == 1:
            items.append(members[0])
            continue
        for start in range(0, len(members), batch_size):
            chunk = members[start:start + batch_size]
            if len(chunk) == 1:
                items.append(chunk[0])
            else:
                items.append(BatchTask(jobs=tuple(chunk)))
    return items


# -- shared-memory trace plumbing --------------------------------------------


def _segment_name(token: str) -> str:
    # Content-addressed but pid-scoped: two executors on one host never
    # race to fill the same segment mid-write. The worker-side attach
    # memo still collapses every task of one sweep onto one mapping.
    return f"repro-{token[:16]}-{os.getpid()}"


def publish_trace(trace: Trace, token: str):
    """Copy a trace's columns into a named shared-memory segment.

    Returns ``(shm, ref)``; the caller owns the segment and must
    ``close()`` + ``unlink()`` it when the sweep is done (the executor
    does this on shutdown). Raises ``OSError`` when shared memory is
    unavailable — callers degrade to factory-rebuilt traces.
    """
    from multiprocessing import shared_memory

    n = len(trace)
    if n == 0:
        raise ValueError("cannot publish an empty trace")
    name = _segment_name(token)
    size = 9 * n  # 8 bytes per address + 1 write flag
    try:
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        # A sibling executor in this process already published this
        # trace; the bytes are content-determined, so re-filling below
        # is an idempotent no-op either way.
        shm = shared_memory.SharedMemory(name=name, create=False)
    addrs = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)
    writes = np.ndarray((n,), dtype=np.uint8, buffer=shm.buf, offset=8 * n)
    addrs[:] = trace.numpy_addrs()
    writes[:] = trace.numpy_writes()
    ref = TraceRef(
        shm_name=name,
        length=n,
        trace_name=trace.name,
        instructions_per_access=trace.instructions_per_access,
        token=token,
    )
    return shm, ref


#: shm_name -> (segment, Trace). Process-lifetime by design: the
#: attached mapping and its Trace (with all derived caches) serve every
#: batch of the sweep that lands on this worker.
_ATTACHED: Dict[str, Tuple[object, Trace]] = {}


def attach_trace(ref: TraceRef) -> Optional[Trace]:
    """Attach to a published trace; None when the segment is gone.

    The returned Trace is memoized per segment name, so every batch a
    worker executes over one trace sees the *same object* — plan memos
    keyed by identity or by ``cache_token`` both collapse to one entry.

    Attaching registers the name with ``multiprocessing``'s resource
    tracker again (bpo-39959), which is deliberately left alone: pool
    workers inherit the parent's tracker, whose name set collapses the
    duplicate, and the parent's ``unlink()`` balances it — worker-side
    unregistering would instead erase the parent's registration from
    the shared tracker.
    """
    entry = _ATTACHED.get(ref.shm_name)
    if entry is not None:
        return entry[1]
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=ref.shm_name, create=False)
    except (FileNotFoundError, OSError):
        return None
    n = ref.length
    if shm.size < 9 * n:
        return None  # truncated segment: fall back to the factory
    addrs = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)
    writes = np.ndarray((n,), dtype=np.uint8, buffer=shm.buf, offset=8 * n)
    trace = Trace(
        ref.trace_name, addrs, writes, ref.instructions_per_access,
        cache_token=ref.token,
    )
    _ATTACHED[ref.shm_name] = (shm, trace)
    return trace


def attached_segment_count() -> int:
    """How many shared-memory segments this process has attached."""
    return len(_ATTACHED)


# -- batch execution ---------------------------------------------------------


def _assemble(key: JobKey, config, trace: Trace, stats, phases) -> RunResult:
    """The tail of :meth:`Simulator.run`, replicated per batch member."""
    instructions = stats.demand_reads * trace.instructions_per_access
    if instructions <= 0:
        raise SimulationError(
            f"trace {trace.name!r} produced no post-warmup demand reads"
        )
    timing = IntervalTimingModel(config).evaluate(stats, instructions)
    return RunResult(
        design=key.design,
        workload=trace.name,
        stats=stats,
        timing=timing,
        instructions=instructions,
        phases=phases,
    )


def run_batch(keys: Sequence[JobKey], trace: Trace) -> List[RunResult]:
    """Run every job over one shared trace; results in member order.

    Per member this follows :meth:`Simulator.run` exactly — fresh
    cache, engine resolution, ``serial_segments`` measurement plan,
    stats/timing assembly — so each ``RunResult`` is bit-identical to
    the per-job path. The shared part is the drive: members resolving
    to the vector engine whose kernel plans share a fusion signature
    are evaluated in one multi-config pass
    (:func:`repro.sim.engines.multi.drive_fused`); everything else
    (replay/stream/loop designs, singleton signatures) runs
    sequentially over the same trace object, still sharing the step
    plan and split columns.
    """
    n = len(trace)
    results: List[Optional[RunResult]] = [None] * len(keys)
    fusable: Dict[Tuple, List[Tuple]] = {}
    sequential: List[Tuple] = []
    for index, key in enumerate(keys):
        config = scaled_system(ways=key.design.ways, scale=key.scale)
        cache = build_dram_cache(key.design, config, seed=key.seed)
        engine = resolve_engine(cache, requested=key.engine, design=key.design)
        warm = int(n * key.warmup)
        segments = serial_segments(trace, warm, key.epoch)
        member = (index, key, config, cache, engine, warm, segments)
        plan = fusion_plan(cache) if engine.name == "vector" else None
        if plan is None:
            sequential.append(member)
        else:
            fusable.setdefault(plan_signature(plan), []).append((member, plan))
    for group in fusable.values():
        if len(group) < 2:
            sequential.extend(member for member, _plan in group)
            continue
        runs = [
            FusedRun(
                plan=plan,
                warm=member[5],
                segments=member[6],
                epoch=member[1].epoch,
            )
            for member, plan in group
        ]
        geometry = group[0][0][3].geometry
        stream = TraceStream(trace, geometry)
        fused = drive_fused(runs, stream, geometry)
        for (member, _plan), (stats, phases) in zip(group, fused):
            index, key, config, cache = member[:4]
            results[index] = _assemble(key, config, trace, stats, phases)
    for member in sequential:
        index, key, config, cache, engine, warm, segments = member
        stream = TraceStream(trace, cache.geometry)
        phases = engine.drive(cache, stream, warm, segments, key.epoch)
        results[index] = _assemble(key, config, trace, cache.stats, phases)
    return results  # type: ignore[return-value]


def execute_batch(task: BatchTask) -> List[RunResult]:
    """Run a packed batch (worker entry point; picklable).

    Fault points fire per member with the member's own digest — chaos
    plans targeting one job's token hit it whether the job ran packed
    or alone — and the in-memory result corruption hook
    (``SITE_ENGINE_RESULT``) sees each member's result object, keeping
    batched jobs individually shadow-verifiable.
    """
    keys = task.jobs
    for key in keys:
        fault_point(SITE_JOB, token=key.digest())
    trace = None
    if task.trace_ref is not None:
        trace = attach_trace(task.trace_ref)
    if trace is None:
        trace = _trace_factory(keys[0]).trace_for(keys[0].workload)
    results = run_batch(keys, trace)
    if len(results) != len(keys):
        raise ExecutionError(
            f"{task.display}: batch returned {len(results)} results "
            f"for {len(keys)} jobs"
        )
    for key, result in zip(keys, results):
        fault_point(SITE_ENGINE_RESULT, token=key.digest(), obj=result)
    return results


def execute_batch_traced(task: BatchTask, claims_dir: str) -> List[RunResult]:
    """Batch worker entry with claim markers (see execute_job_traced)."""
    digest = task.digest()
    write_claim(claims_dir, digest)
    result = execute_batch(task)
    complete_claim(claims_dir, digest)
    return result


__all__ = [
    "BatchTask",
    "DEFAULT_BATCH_SIZE",
    "TraceRef",
    "attach_trace",
    "attached_segment_count",
    "batch_group",
    "execute_batch",
    "execute_batch_traced",
    "plan_batches",
    "publish_trace",
    "run_batch",
    "trace_key_for",
]
