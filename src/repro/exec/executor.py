"""Parallel sweep executor with memoization, retries, and a watchdog.

Jobs are independent (design, workload) simulations named by
:class:`JobKey`. The executor serves warm keys from a
:class:`ResultStore` (and, when resuming, from a
:class:`~repro.exec.resilience.SweepJournal`), chunks the cold ones
into :class:`~repro.exec.batching.BatchTask` work items — same-trace
groups of up to ``DEFAULT_BATCH_SIZE`` jobs, or one job each under
``batch=False`` — fans the tasks out over the process-wide worker pool
(or runs them inline for ``jobs=1``), and reports progress through an
optional callback. A task is the only unit the retry, claim, watchdog
and degrade machinery below sees; its results are absorbed per job.

Failure handling distinguishes three classes:

* **Deterministic simulation errors** (:class:`~repro.errors.ReproError`
  subclasses other than :class:`~repro.errors.TransientError`) are
  never retried — they would fail identically — and propagate.
* **Transient failures** (:class:`~repro.errors.TransientError`,
  ``OSError``) are retried up to ``retries`` times with exponential
  backoff and deterministic jitter (:class:`BackoffPolicy`).
* **Dead or stuck workers**: a crashed worker breaks the pool; a
  wall-clock watchdog (``timeout``) kills workers whose job overran.
  Worker-side claim markers (:func:`execute_batch_traced`) let the
  executor attribute the break to the specific in-flight tasks of the
  dead worker, so only those are charged a retry — the rest are
  simply resubmitted. If the pool keeps breaking, execution degrades
  gracefully to serial in the main process.

Results are bit-identical to a fault-free serial run: every job
rebuilds its trace from the seeded generator, so neither scheduling,
retries, nor process boundaries can perturb the outcome.

One worker pool serves every executor in a process. It is forked on the
first parallel run and reused by every later run whose identity — the
worker count plus every ``REPRO_*`` environment variable, which workers
read as they were when forked — matches. It is retired (its workers
joined) on a pool break, on a watchdog kill, when the identity changes
(a circuit-breaker trip rewrites ``REPRO_ENGINE_DENY``), on
:meth:`Executor.shutdown`, :func:`retire_pool`, and at interpreter
exit. Parallel runs hold one module-level lock, so retiring the pool
never cancels another executor's tasks. Workers get every trace
themselves, through their trace factory and the shared trace cache;
the dispatching process builds none.

With ``verify_fraction > 0`` a deterministic sample of executed jobs
is additionally *shadow-verified*: each sampled result is compared (by
:func:`~repro.verify.digest.result_digest`) against a re-execution on
the reference engine (``loop``). A mismatch quarantines both payloads,
trips the offending engine's circuit breaker
(:mod:`repro.verify.breaker`), and heals in place by recording the
reference result — the sweep still completes, bit-identically.
"""

from __future__ import annotations

import atexit
import os
import shutil
import signal
import tempfile
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    ConfigError,
    ExecutionError,
    ReproError,
    TransientError,
    VerificationError,
)
from repro.exec.batching import (
    DEFAULT_BATCH_SIZE,
    BatchTask,
    execute_batch,
    execute_batch_traced,
    plan_batches,
)
from repro.exec.jobs import JobKey, resolve_job_engine
from repro.exec.resilience import (
    BackoffPolicy,
    SweepJournal,
    claim_done,
    clear_claim,
    read_claim,
)
from repro.exec.store import ResultStore
from repro.sim.engines import mark_worker_process
from repro.sim.system import RunResult
from repro.verify.shadow import REFERENCE_ENGINE

#: progress(done, total, key, source) with source in
#: {"cached", "run", "resumed"}.
ProgressFn = Callable[[int, int, JobKey, str], None]

#: on_verify(key, outcome, detail) with outcome in {"ok", "mismatch"};
#: detail carries the payload digests (and, on mismatch, the demoted
#: engine). The service streams these to subscribers.
VerifyFn = Callable[[JobKey, str, Dict[str, str]], None]

#: Exceptions worth retrying: the same job may succeed on a later
#: attempt. Everything else deterministic fails fast.
TRANSIENT_EXCEPTIONS = (TransientError, OSError)


@dataclass
class ExecutorStats:
    """What the most recent :meth:`Executor.run` call actually did."""

    executed: int = 0
    cached: int = 0
    resumed: int = 0
    retried: int = 0
    transient_retries: int = 0
    timeouts: int = 0
    pool_breaks: int = 0
    degraded_to_serial: bool = False
    #: Shadow-verification outcomes (``verify_fraction`` sampling):
    #: jobs whose reference re-run agreed, and mismatches that were
    #: quarantined + healed from the reference result.
    verified: int = 0
    mismatches: int = 0
    #: Same-trace tasks of two or more jobs executed.
    batches: int = 0


class _PoolBroken(Exception):
    """Internal: the pool died; ``suspects`` are the tasks to charge."""

    def __init__(self, suspects: List[BatchTask]):
        super().__init__("process pool broke")
        self.suspects = suspects


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        pass


def usable_cpus() -> int:
    """CPUs this process may run on: the default worker count."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity on this platform
        return max(1, os.cpu_count() or 1)


# -- the process-wide worker pool ---------------------------------------------


class _WorkerPool:
    """The forked workers, tagged with the identity they were forked under."""

    def __init__(self, identity: Tuple):
        self.identity = identity
        self.processes = ProcessPoolExecutor(
            max_workers=identity[0], initializer=mark_worker_process
        )

    def close(self) -> None:
        """Join the workers; queued tasks are cancelled."""
        self.processes.shutdown(wait=True, cancel_futures=True)


#: Held by every parallel run and by :func:`retire_pool`. Reentrant, so
#: a run can retire the pool it is using.
_POOL_LOCK = threading.RLock()
_POOL: Optional[_WorkerPool] = None


def _pool_identity(workers: int) -> Tuple:
    return (workers, tuple(sorted(
        (name, value) for name, value in os.environ.items()
        if name.startswith("REPRO_")
    )))


def _shared_pool(workers: int) -> _WorkerPool:
    """The live pool if its identity matches, else a freshly forked one.

    The caller holds :data:`_POOL_LOCK`. A stale pool is joined before
    the new one forks, so no fork happens while its manager thread runs.
    """
    global _POOL
    identity = _pool_identity(workers)
    if (
        _POOL is None
        or _POOL.identity != identity
        # A worker that died between runs (killed, out of memory) broke
        # the pool; the next submission would fail outright.
        or getattr(_POOL.processes, "_broken", False)
    ):
        retire_pool()
        _POOL = _WorkerPool(identity)
    return _POOL


def retire_pool() -> None:
    """Join the shared worker pool.

    A no-op without a pool; the next parallel run forks a fresh one.
    Waits for a parallel run in progress on another thread to finish.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
        if pool is not None:
            pool.close()


atexit.register(retire_pool)


class Executor:
    """Runs batches of jobs, warm-first, then parallel or serial."""

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        retries: int = 1,
        progress: Optional[ProgressFn] = None,
        timeout: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
        journal: Optional[SweepJournal] = None,
        poll_interval: float = 0.2,
        verify_fraction: float = 0.0,
        on_verify: Optional[VerifyFn] = None,
        batch: bool = True,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if not 0.0 <= verify_fraction <= 1.0:
            raise ConfigError(
                f"verify_fraction must be in [0, 1], got {verify_fraction}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        if poll_interval <= 0:
            raise ConfigError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        self.jobs = jobs
        self.store = store
        self.retries = retries
        self.progress = progress
        self.timeout = timeout
        self.journal = journal
        self.pool_break_limit = max(3, retries + 2)
        self._backoff = backoff if backoff is not None else BackoffPolicy()
        self._poll = poll_interval
        self.verify_fraction = verify_fraction
        self.on_verify = on_verify
        self.batch = batch
        self.stats = ExecutorStats()
        self._forced_timeouts: Set[BatchTask] = set()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Retire the shared worker pool (idempotent).

        The executor stays usable: a later parallel :meth:`run` forks a
        fresh pool. Safe to call from a thread other than the one
        running batches — it serializes against :meth:`run`.
        """
        with self._lock:
            retire_pool()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def run(self, keys: Sequence[JobKey]) -> Dict[JobKey, RunResult]:
        """Resolve every key to a result; ``stats`` reflects this call.

        Reentrant-safe for long-lived owners: concurrent calls from
        other threads serialize on an internal lock rather than
        corrupting shared batch state.
        """
        with self._lock:
            return self._run_locked(keys)

    def _run_locked(self, keys: Sequence[JobKey]) -> Dict[JobKey, RunResult]:
        self.stats = ExecutorStats()
        unique: List[JobKey] = []
        seen = set()
        for key in keys:
            if key not in seen:
                seen.add(key)
                unique.append(key)
        self._total = len(unique)
        self._done = 0

        results: Dict[JobKey, RunResult] = {}
        pending: List[JobKey] = []
        for key in unique:
            resumed = self._from_journal(key)
            if resumed is not None:
                results[key] = resumed
                self.stats.resumed += 1
                if (
                    self.journal is not None
                    and self.journal.verify_outcome(key) == "ok"
                ):
                    # Carry journaled verification credit across the
                    # kill: the resumed sweep's summary still reflects
                    # every job the shadow check vouched for.
                    self.stats.verified += 1
                if self.store is not None:
                    # Replayed results are as good as executed ones:
                    # memoize them so later runs are warm without the
                    # journal (the service's restart-resume relies on
                    # this — batch journals are deleted once drained).
                    self.store.put(key, resumed)
                self._report(key, "resumed")
                continue
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                # The store ignores cosmetic labels; hand back the
                # caller's exact design object. Every get() builds a
                # fresh result, so it is ours to relabel in place.
                cached.design = key.design
                results[key] = cached
                self.stats.cached += 1
                if self.journal is not None:
                    self.journal.record_done(key, cached)
                self._report(key, "cached")
            else:
                pending.append(key)

        if not pending:
            return results
        if self.jobs == 1 or len(pending) == 1:
            # Inline tasks still share one trace + plan per group.
            for task in self._plan_tasks(pending):
                self._absorb(task, self._execute_inline(task), results)
        else:
            self._run_parallel(pending, results)
        return results

    # -- internals --------------------------------------------------------

    def _from_journal(self, key: JobKey) -> Optional[RunResult]:
        if self.journal is None:
            return None
        record = self.journal.lookup(key)
        if record is None:
            return None
        try:
            result = RunResult.from_dict(record)
        except (ReproError, KeyError, TypeError, ValueError):
            return None  # malformed journal entry: just re-run the job
        return replace(result, design=key.design)

    def _record(
        self, key: JobKey, result: RunResult, results: Dict[JobKey, RunResult]
    ) -> None:
        result = self._maybe_verify(key, result)
        results[key] = result
        self.stats.executed += 1
        if self.store is not None:
            self.store.put(key, result)
        if self.journal is not None:
            self.journal.record_done(key, result)
        self._report(key, "run")

    def _report(self, key: JobKey, source: str) -> None:
        self._done += 1
        if self.progress is not None:
            self.progress(self._done, self._total, key, source)

    def _note(self, event: str, **fields) -> None:
        if self.journal is not None:
            self.journal.record_event(event, **fields)

    # -- shadow verification ----------------------------------------------

    def _maybe_verify(self, key: JobKey, result: RunResult) -> RunResult:
        """Shadow-verify a sampled executed result; returns what to trust.

        A clean comparison (or an unsampled key) hands back ``result``
        unchanged. A mismatch quarantines both payloads, trips the
        offending engine's circuit breaker, and returns the *reference*
        result, so the sweep heals in place and still finishes
        bit-identically; only an unhealable mismatch — the reference
        chain itself disagreeing — raises :class:`VerificationError`.
        """
        if self.verify_fraction <= 0.0:
            return result
        from repro.verify.shadow import should_verify

        if not should_verify(key.digest(), self.verify_fraction):
            return result
        if (
            self.journal is not None
            and self.journal.verify_outcome(key) == "ok"
        ):
            # Already vouched for by this sweep's journal (the job was
            # verified before a crash lost its done line): trust it.
            self.stats.verified += 1
            return result
        return self._shadow_verify(key, result)

    def _shadow_verify(self, key: JobKey, result: RunResult) -> RunResult:
        from repro.verify import breaker
        from repro.verify.digest import result_digest
        from repro.verify.shadow import quarantine_mismatch, reference_result

        if self.journal is not None:
            self.journal.record_verify(
                key, "sampled",
                fraction=self.verify_fraction, engine=REFERENCE_ENGINE,
            )
        suspect_digest = result_digest(result)
        reference = reference_result(key)
        reference_digest = result_digest(reference)
        if suspect_digest == reference_digest:
            self.stats.verified += 1
            if self.journal is not None:
                self.journal.record_verify(key, "ok", digest=suspect_digest)
            if self.on_verify is not None:
                self.on_verify(key, "ok", {"digest": suspect_digest})
            return result
        # Attribute the wrong answer before tripping: the trip changes
        # what the request resolves to.
        engine = resolve_job_engine(key)
        self.stats.mismatches += 1
        if self.journal is not None:
            self.journal.record_verify(
                key, "mismatch",
                engine=engine, suspect=suspect_digest,
                reference=reference_digest,
                reference_engine=REFERENCE_ENGINE,
            )
        if self.store is not None:
            quarantine_mismatch(
                self.store.root, key, engine, result, reference,
                suspect_digest, reference_digest,
            )
        if self.on_verify is not None:
            self.on_verify(key, "mismatch", {
                "engine": engine,
                "suspect": suspect_digest,
                "reference": reference_digest,
            })
        if engine == REFERENCE_ENGINE:
            raise VerificationError(
                f"{key.display}: result from engine {engine!r} disagrees "
                f"with its own reference re-run ({suspect_digest[:12]} vs "
                f"{reference_digest[:12]}) — no trusted engine remains"
            )
        breaker.trip(
            engine,
            reason=f"shadow verification mismatch on {key.display}",
        )
        # The trip rewrote REPRO_ENGINE_DENY, so the next pool
        # acquisition no longer matches the pool's identity and forks
        # fresh workers (in-flight jobs finish on the old pool — their
        # sampled results still get verified).
        return reference

    # -- inline path (jobs=1, single pending job, or degraded) ------------

    def _execute_inline(self, task: BatchTask, attempts: int = 0):
        """Run one task in-process with the transient-retry loop."""
        while True:
            try:
                return execute_batch(task)
            except TRANSIENT_EXCEPTIONS as exc:
                attempts += 1
                self.stats.transient_retries += 1
                self._note(
                    "retry", key=task.digest(), attempt=attempts,
                    error=str(exc),
                )
                if attempts > self.retries:
                    raise ExecutionError(
                        f"{task.display} kept failing transiently "
                        f"(gave up after {attempts} attempts): {exc}"
                    ) from exc
                self._backoff.sleep(attempts)

    # -- parallel path ----------------------------------------------------

    def _plan_tasks(self, pending: Sequence[JobKey]) -> List[BatchTask]:
        """Same-trace tasks of up to ``DEFAULT_BATCH_SIZE`` jobs (one
        under ``batch=False``)."""
        return plan_batches(pending, DEFAULT_BATCH_SIZE if self.batch else 1)

    def _absorb(
        self,
        task: BatchTask,
        task_results: Sequence[RunResult],
        results: Dict[JobKey, RunResult],
    ) -> None:
        """Absorb a completed task member by member.

        Every member goes through :meth:`_record` individually, so
        verification sampling, the store, journal done-lines (and with
        them ``--resume`` granularity), and progress callbacks are
        per-``JobKey`` — batching never changes what a sweep records,
        only how the work was scheduled.
        """
        if len(task_results) != len(task.jobs):
            raise ExecutionError(
                f"{task.display}: batch returned {len(task_results)} "
                f"results for {len(task.jobs)} jobs"
            )
        if len(task.jobs) > 1:
            self.stats.batches += 1
            self._note(
                "batch", key=task.digest(), jobs=len(task.jobs),
                members=[key.digest() for key in task.jobs],
            )
        for key, result in zip(task.jobs, task_results):
            self._record(key, result, results)

    def _run_parallel(
        self, pending: Sequence[JobKey], results: Dict[JobKey, RunResult]
    ) -> None:
        # Explicit engine requests are resolved here, in the parent, so
        # a fallback warning prints once (workers suppress it).
        for key in pending:
            if key.engine != "auto":
                resolve_job_engine(key)
        tasks = self._plan_tasks(pending)
        attempts: Dict[BatchTask, int] = {task: 0 for task in tasks}
        remaining: Dict[BatchTask, None] = dict.fromkeys(tasks)
        claims = tempfile.mkdtemp(prefix="repro-claims-")
        try:
            with _POOL_LOCK:
                self._dispatch(remaining, results, attempts, claims)
            if remaining:
                self._degrade_to_serial(remaining, results, attempts)
        finally:
            shutil.rmtree(claims, ignore_errors=True)

    def _dispatch(
        self,
        remaining: Dict[BatchTask, None],
        results: Dict[JobKey, RunResult],
        attempts: Dict[BatchTask, int],
        claims: str,
    ) -> None:
        """Run tasks on the shared pool until they drain or it keeps breaking.

        The caller holds :data:`_POOL_LOCK`. A run that fails leaves no
        task of its own queued on the pool: the pool is retired.
        """
        consecutive_breaks = 0
        try:
            while remaining and consecutive_breaks < self.pool_break_limit:
                self._forced_timeouts = set()
                try:
                    pool = _shared_pool(self.jobs)
                    for task in remaining:
                        clear_claim(claims, task.digest())
                    futures = {
                        pool.processes.submit(
                            execute_batch_traced, task, claims
                        ): task
                        for task in remaining
                    }
                    try:
                        self._drain(
                            pool, futures, remaining, results, attempts,
                            claims,
                        )
                    except BrokenProcessPool:
                        # Inspect pids *before* pool shutdown finishes
                        # reaping, so live workers are still visible.
                        raise _PoolBroken(
                            self._suspects(claims, remaining)
                        ) from None
                    consecutive_breaks = 0
                except _PoolBroken as broken:
                    retire_pool()
                    consecutive_breaks += 1
                    self.stats.pool_breaks += 1
                    self._penalize(broken.suspects, attempts)
                    self._note(
                        "pool_break",
                        retried=[task.digest() for task in broken.suspects],
                    )
                    self._backoff.sleep(consecutive_breaks)
        except BaseException:
            retire_pool()
            raise

    def _drain(
        self,
        pool: _WorkerPool,
        futures: Dict,
        remaining: Dict[BatchTask, None],
        results: Dict[JobKey, RunResult],
        attempts: Dict[BatchTask, int],
        claims: str,
    ) -> None:
        """Collect results until every task drains (or the pool breaks).

        Transient task failures are rescheduled onto the same pool after
        their backoff delay elapses (tracked as deadlines, so waiting
        out one task's backoff never blocks the others or the watchdog).
        """
        outstanding = set(futures)
        backoff_until: Dict[BatchTask, float] = {}
        while outstanding or backoff_until:
            now = time.monotonic()
            for task, ready_at in list(backoff_until.items()):
                if now >= ready_at:
                    del backoff_until[task]
                    clear_claim(claims, task.digest())
                    future = pool.processes.submit(
                        execute_batch_traced, task, claims
                    )
                    futures[future] = task
                    outstanding.add(future)
            if not outstanding:
                soonest = min(backoff_until.values())
                time.sleep(max(0.0, min(soonest - time.monotonic(),
                                        self._poll)))
                continue
            poll = (
                self._poll
                if self.timeout is not None or backoff_until
                else None
            )
            done, outstanding = wait(outstanding, timeout=poll)
            for future in done:
                task = futures.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise
                except TRANSIENT_EXCEPTIONS as exc:
                    attempts[task] += 1
                    self.stats.transient_retries += 1
                    self._note(
                        "retry", key=task.digest(), attempt=attempts[task],
                        error=str(exc),
                    )
                    if attempts[task] > self.retries:
                        raise ExecutionError(
                            f"{task.display} kept failing transiently "
                            f"(gave up after {attempts[task]} attempts): {exc}"
                        ) from exc
                    backoff_until[task] = (
                        time.monotonic() + self._backoff.delay(attempts[task])
                    )
                    continue
                self._absorb(task, result, results)
                del remaining[task]
            if self.timeout is not None:
                self._watchdog(futures, attempts, claims)

    def _watchdog(
        self, futures: Dict, attempts: Dict[BatchTask, int], claims: str
    ) -> None:
        """Kill workers whose current task overran the wall-clock budget.

        ``timeout`` is a per-*job* budget; a task gets one budget per
        member, since it legitimately does that many jobs' work under a
        single claim marker.
        """
        now = time.time()
        for future, task in list(futures.items()):
            if future.done() or task in self._forced_timeouts:
                continue
            digest = task.digest()
            claim = read_claim(claims, digest)
            if claim is None or claim_done(claims, digest):
                continue  # queued, finished, or marker unreadable
            pid, started_at = claim
            budget = self.timeout * len(task.jobs)
            if now - started_at <= budget:
                continue
            self._forced_timeouts.add(task)
            self.stats.timeouts += 1
            attempts[task] += 1
            self._note(
                "timeout", key=digest, attempt=attempts[task],
                timeout=budget,
            )
            _kill(pid)  # breaks the pool; the break handler reschedules
            if attempts[task] > self.retries:
                raise ExecutionError(
                    f"{task.display} exceeded the {budget:g}s job "
                    f"timeout (gave up after {attempts[task]} attempts)"
                )

    def _suspects(
        self, claims: str, remaining: Dict[BatchTask, None]
    ) -> List[BatchTask]:
        """Tasks to charge for a pool break.

        In-flight tasks whose claiming worker pid is dead are the
        culprits. When the break was forced by the watchdog, the killed
        task was already charged, so nobody else is. Only if attribution
        fails entirely does this fall back to the whole in-flight set
        (and last, every remaining task) so a repeatedly-poisonous job
        can still exhaust its retry budget instead of looping forever.
        """
        in_flight: List[BatchTask] = []
        dead: List[BatchTask] = []
        for task in remaining:
            if task in self._forced_timeouts:
                continue
            digest = task.digest()
            claim = read_claim(claims, digest)
            if claim is None or claim_done(claims, digest):
                continue
            in_flight.append(task)
            if not _pid_alive(claim[0]):
                dead.append(task)
        if dead:
            return dead
        if self._forced_timeouts:
            return []
        if in_flight:
            return in_flight
        return list(remaining)

    def _penalize(
        self, suspects: Sequence[BatchTask], attempts: Dict[BatchTask, int]
    ) -> None:
        for task in suspects:
            attempts[task] += 1
            if attempts[task] > self.retries:
                raise ExecutionError(
                    f"worker process died repeatedly on {task.display} "
                    f"(gave up after {attempts[task]} attempts)"
                )
        self.stats.retried += len(suspects)

    def _degrade_to_serial(
        self,
        remaining: Dict[BatchTask, None],
        results: Dict[JobKey, RunResult],
        attempts: Dict[BatchTask, int],
    ) -> None:
        """Last resort: finish the remaining tasks inline in the main process."""
        self.stats.degraded_to_serial = True
        warnings.warn(
            f"process pool broke {self.stats.pool_breaks} times in a row; "
            f"finishing the remaining {len(remaining)} job(s) serially",
            RuntimeWarning,
            stacklevel=3,
        )
        self._note("degraded_to_serial", remaining=len(remaining))
        for task in list(remaining):
            self._absorb(
                task, self._execute_inline(task, attempts[task]), results
            )
            del remaining[task]
