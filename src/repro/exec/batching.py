"""Same-trace execution: the executor's only work item.

A sweep of N configs over one workload names N independent
:class:`~repro.exec.jobs.JobKey`\\ s, but the jobs share almost all of
their fixed cost: the trace bytes and the engine's sorted step plan.
This module groups a sweep's cold keys by (trace, geometry) —
:func:`batch_group` — and chunks each group into :class:`BatchTask`
work items that a single worker executes with *one* trace and *one*
plan, fusing vectorizable same-signature configs into a single
multi-config kernel pass (:mod:`repro.sim.engines.multi`).

Every cold job runs as a :class:`BatchTask`: a group of one (or a
``--no-batch`` sweep, which chunks every group into ones) is a
one-member task whose ``digest()`` and ``display`` are its job's own,
and :func:`repro.exec.jobs.execute_job` is a one-member
:func:`execute_batch`. Store entries, journal lines, shadow
verification and progress all stay at per-``JobKey`` granularity (the
executor absorbs a task member by member), and every member's
``RunResult`` is assembled by :func:`repro.sim.system.build_result`,
the same function :meth:`repro.sim.system.Simulator.run` ends in.

Every task gets its trace the way a one-job run does, from the
worker's trace factory (:func:`repro.exec.jobs._trace_factory`): a
warm trace-cache entry is memory-mapped, so each worker reads the
shared page-cache copy rather than one of its own, and a cold one is
generated once and written back for every other process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
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
from repro.sim.system import RunResult, build_dram_cache, build_result
from repro.sim.trace import Trace

#: Largest number of jobs packed into one worker task. Bounds both the
#: fused kernel's config axis (memory scales with K × touched sets ×
#: ways) and the work lost when a batch has to be retried whole.
DEFAULT_BATCH_SIZE = 16


def batch_group(key: JobKey) -> Tuple:
    """Grouping identity: jobs in one group share trace AND geometry.

    The trace half is the workload plus the knobs feeding its
    generation; the geometry half is the design's way count
    (with ``scale`` fixed, ways determine the set layout and therefore
    the split columns and step plan). ``warmup``/``epoch`` ride along
    so one batch shares its measurement plan too.
    """
    return (
        key.workload, key.scale, key.num_accesses, key.seed,
        key.footprint_scale, key.design.ways, key.warmup, key.epoch,
    )


@dataclass(frozen=True)
class BatchTask:
    """A worker task: same-group jobs executed over one trace.

    Mirrors :class:`JobKey`'s ``digest()``/``display`` surface for
    claims, retries, the watchdog and pool-break attribution. A
    one-member task *is* its job there: same digest, same display, so
    claim markers, journal events, fault-plan tokens and error text
    read as the job's own. A larger task's digest is derived from the
    member digests, so its claim marker names exactly its jobs.
    """

    jobs: Tuple[JobKey, ...]

    def digest(self) -> str:
        if len(self.jobs) == 1:
            return self.jobs[0].digest()
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
        if len(self.jobs) == 1:
            return first.display
        return (
            f"{first.workload} x{len(self.jobs)} designs "
            f"[batch {self.digest()[6:14]}]"
        )


def plan_batches(
    keys: Sequence[JobKey], batch_size: int = DEFAULT_BATCH_SIZE
) -> List[BatchTask]:
    """Chunk same-group jobs into :class:`BatchTask` items.

    Every group, a group of one included, becomes tasks of at most
    ``batch_size`` members, in first-seen group order; ``batch_size=1``
    gives one task per job. Deduplication is the caller's concern (the
    executor already runs on unique keys).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    groups: Dict[Tuple, List[JobKey]] = {}
    for key in keys:
        groups.setdefault(batch_group(key), []).append(key)
    return [
        BatchTask(jobs=tuple(members[start:start + batch_size]))
        for members in groups.values()
        for start in range(0, len(members), batch_size)
    ]


# -- batch execution ---------------------------------------------------------


def run_batch(keys: Sequence[JobKey], trace: Trace) -> List[RunResult]:
    """Run every job over one shared trace; results in member order.

    Per member this follows :meth:`Simulator.run` exactly — fresh
    cache, engine resolution, ``serial_segments`` measurement plan,
    and :func:`~repro.sim.system.build_result` — so each ``RunResult``
    is bit-identical to a :class:`~repro.sim.system.Simulator` run. The
    shared part is the drive: members resolving to the vector engine
    whose kernel plans share a fusion signature are evaluated in one
    multi-config pass (:func:`repro.sim.engines.multi.drive_fused`);
    everything else (replay/stream/loop designs, singleton signatures)
    runs sequentially over the same trace object, still sharing the
    step plan. Every drive over one geometry (for a
    :func:`batch_group` task, every drive) reads one
    :class:`TraceStream`, so split columns are computed once per call.
    """
    n = len(trace)
    results: List[Optional[RunResult]] = [None] * len(keys)
    streams: Dict[Tuple[int, int, int], TraceStream] = {}

    def stream_for(geometry) -> TraceStream:
        shape = (geometry.capacity_bytes, geometry.ways, geometry.line_size)
        stream = streams.get(shape)
        if stream is None:
            stream = streams[shape] = TraceStream(trace, geometry)
        return stream

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
        fused = drive_fused(runs, stream_for(geometry), geometry)
        for (member, _plan), (stats, phases) in zip(group, fused):
            index, key, config = member[:3]
            results[index] = build_result(
                key.design, config, trace, stats, phases
            )
    for member in sequential:
        index, key, config, cache, engine, warm, segments = member
        phases = engine.drive(
            cache, stream_for(cache.geometry), warm, segments, key.epoch
        )
        results[index] = build_result(
            key.design, config, trace, cache.stats, phases
        )
    return results  # type: ignore[return-value]


def execute_batch(task: BatchTask) -> List[RunResult]:
    """Run a task's jobs over one trace (worker entry point; picklable).

    Fault points fire per member with the member's own digest — chaos
    plans targeting one job's token hit it whether the job ran packed
    or alone — and the in-memory result corruption hook
    (``SITE_ENGINE_RESULT``) sees each member's result object, keeping
    batched jobs individually shadow-verifiable.
    """
    keys = task.jobs
    for key in keys:
        fault_point(SITE_JOB, token=key.digest())
    trace = _trace_factory(keys[0]).trace_for(keys[0].workload)
    results = run_batch(keys, trace)
    for key, result in zip(keys, results):
        fault_point(SITE_ENGINE_RESULT, token=key.digest(), obj=result)
    return results


def execute_batch_traced(task: BatchTask, claims_dir: str) -> List[RunResult]:
    """Pool worker entry recording start/done claim markers around a task.

    The markers (``<digest>.started`` holding ``pid started_at``, and
    ``<digest>.done``) let the parallel executor's watchdog attribute a
    pool break or a wall-clock timeout to the specific tasks that were
    in flight on the dead worker, instead of penalizing every remaining
    one.
    """
    digest = task.digest()
    write_claim(claims_dir, digest)
    result = execute_batch(task)
    complete_claim(claims_dir, digest)
    return result


__all__ = [
    "BatchTask",
    "DEFAULT_BATCH_SIZE",
    "batch_group",
    "execute_batch",
    "execute_batch_traced",
    "plan_batches",
    "run_batch",
]
