"""The service scheduler: dedup, admission control, executor bridge.

One :class:`JobManager` owns the long-lived
:class:`~repro.exec.Executor` (started persistent, so the worker pool
survives across batches) and mediates every submission:

* **Warm answers.** A key whose result is already in the
  :class:`~repro.exec.ResultStore` is answered immediately from the
  store — schema-validated on read (the ETag-style check: entries from
  an older ``RESULT_SCHEMA_VERSION`` are quarantined misses) — without
  touching the queue or the executor.
* **In-flight deduplication.** A key already queued or running gains a
  subscriber instead of a second computation: one simulation, N
  streamed copies of the result.
* **Bounded admission.** Cold keys enter a bounded queue; a submission
  whose cold keys would overflow it is shed *whole* (no partial
  registration) with :class:`Overloaded`, which the server turns into
  HTTP 503 + ``Retry-After``.
* **Crash-safe batches.** Every executed batch is journaled
  (``<store>/service/batch-*.journal.jsonl``) with its canonical keys
  in the header, so a killed daemon resumes unfinished batches on
  restart (:meth:`JobManager.resume_pending`) — completed jobs replay
  from the journal, only the remainder re-runs. The PR 4 resilience
  stack (retries, timeouts, quarantine) applies unchanged underneath.

Threading model: all state mutation happens on the event loop. Batches
run on a single worker thread (`run_in_executor`); the executor's
progress callback marshals back with ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import time
import warnings
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    ConfigError,
    ExecutionError,
    JournalError,
    ReproError,
    TransientError,
    VerificationError,
)
from repro.exec.executor import Executor
from repro.exec.jobs import RESULT_SCHEMA_VERSION, JobKey
from repro.exec.resilience import SweepJournal
from repro.exec.store import ResultStore
from repro.service.jobspec import key_from_canonical
from repro.sim.system import RunResult


class Overloaded(ReproError):
    """The admission queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


def etag_for(digest: str) -> str:
    """ETag-style validator for one result: digest + schema version."""
    return f'"{digest}-v{RESULT_SCHEMA_VERSION}"'


@dataclass
class Subscription:
    """One client's view of a submission: an event queue to drain.

    Terminal events (``result`` / ``error``) shrink ``remaining``; a
    ``None`` sentinel is enqueued when the last key resolves. ``counts``
    records how each key was satisfied (cached / deduped / scheduled).
    """

    queue: "asyncio.Queue[Optional[Dict[str, Any]]]"
    remaining: Set[str]
    counts: Dict[str, int] = field(
        default_factory=lambda: {
            "cached": 0, "deduped": 0, "scheduled": 0, "failed": 0,
        }
    )
    closed: bool = False

    def put(self, event: Optional[Dict[str, Any]]) -> None:
        if not self.closed:
            self.queue.put_nowait(event)

    def settle(self, digest: str, event: Dict[str, Any]) -> None:
        """Deliver a terminal event; sentinel once nothing remains."""
        self.put(event)
        self.remaining.discard(digest)
        if not self.remaining:
            self.put(None)


@dataclass
class _Entry:
    """One in-flight key and everyone waiting on it."""

    key: JobKey
    digest: str
    subs: Dict[int, Subscription] = field(default_factory=dict)
    state: str = "queued"  # queued | running

    def attach(self, sub: Subscription) -> None:
        self.subs[id(sub)] = sub

    def each(self) -> List[Subscription]:
        return list(self.subs.values())


class JobManager:
    """Owns the executor, the queue, and every in-flight subscription."""

    def __init__(
        self,
        executor: Executor,
        store: Optional[ResultStore],
        max_pending: int = 256,
        journal_batches: bool = True,
    ):
        if max_pending < 1:
            raise ConfigError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.executor = executor.start()
        self.store = store
        self.max_pending = max_pending
        self._journal_dir = (
            store.root / "service"
            if (store is not None and journal_batches) else None
        )
        self._inflight: Dict[str, _Entry] = {}
        self._queue: Deque[_Entry] = deque()
        self._resume: Deque[Tuple[List[_Entry], SweepJournal, Any]] = deque()
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._warned_journal = False
        self._job_seconds = 1.0  # EMA; seeds the Retry-After estimate
        self.started_at = time.time()
        self.counters: Dict[str, int] = {
            "submissions": 0,
            "submitted_keys": 0,
            "store_hits": 0,
            "store_lookups": 0,
            "deduped": 0,
            "scheduled": 0,
            "completed": 0,
            "failed": 0,
            "executed": 0,
            "executor_cached": 0,
            "resumed": 0,
            "retried": 0,
            "transient_retries": 0,
            "timeouts": 0,
            "pool_breaks": 0,
            "verified": 0,
            "verify_mismatches": 0,
            "shed_queue_full": 0,
            "shed_rate_limited": 0,
            "resumed_batches": 0,
            # Maintained by the HTTP front-end: accepted TCP connections
            # and parsed requests (their ratio is connection reuse).
            "connections": 0,
            "requests": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin dispatching (must run inside the event loop)."""
        self._loop = asyncio.get_running_loop()
        if self._task is None or self._task.done():
            self._task = self._loop.create_task(self._dispatch_loop())

    async def close(self) -> None:
        """Stop dispatching and release the worker pool."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        await asyncio.get_running_loop().run_in_executor(
            None, self.executor.shutdown
        )

    # -- submission (event-loop thread only) -------------------------------

    def submit(self, keys: Sequence[JobKey]) -> Subscription:
        """Register one submission; raises :class:`Overloaded` to shed.

        Classification happens before any registration, so a shed
        request leaves no trace — the queue bound is on *cold* keys
        only; warm and deduplicated keys are always admitted.
        """
        unique: List[JobKey] = []
        seen: Set[str] = set()
        for key in keys:
            digest = key.digest()
            if digest not in seen:
                seen.add(digest)
                unique.append(key)

        # Pass 1: classify without mutating.
        warm: List[Tuple[JobKey, RunResult]] = []
        dedup: List[JobKey] = []
        cold: List[JobKey] = []
        for key in unique:
            if key.digest() in self._inflight:
                dedup.append(key)
                continue
            cached = self._store_get(key)
            if cached is not None:
                warm.append((key, cached))
            else:
                cold.append(key)
        if cold and len(self._queue) + len(cold) > self.max_pending:
            self.counters["shed_queue_full"] += 1
            retry_after = self._retry_after_estimate()
            raise Overloaded(
                f"admission queue is full ({len(self._queue)} queued, "
                f"limit {self.max_pending}); retry in ~{retry_after:.0f}s",
                retry_after=retry_after,
            )

        # Pass 2: commit (no awaits in between — atomic on the loop).
        self.counters["submissions"] += 1
        self.counters["submitted_keys"] += len(unique)
        sub = Subscription(
            queue=asyncio.Queue(),
            remaining={key.digest() for key in unique},
        )
        for key, result in warm:
            self.counters["store_hits"] += 1
            sub.counts["cached"] += 1
            sub.settle(key.digest(), self._result_event(key, result, "cached"))
        for key in dedup:
            self.counters["deduped"] += 1
            sub.counts["deduped"] += 1
            entry = self._inflight[key.digest()]
            entry.attach(sub)
            sub.put(self._scheduled_event(key, entry.state, dedup=True))
        for key in cold:
            self.counters["scheduled"] += 1
            sub.counts["scheduled"] += 1
            entry = _Entry(key=key, digest=key.digest())
            entry.attach(sub)
            self._inflight[entry.digest] = entry
            self._queue.append(entry)
            sub.put(self._scheduled_event(key, "queued", dedup=False))
        if cold:
            self._wake.set()
        return sub

    def _store_get(self, key: JobKey) -> Optional[RunResult]:
        if self.store is None:
            return None
        self.counters["store_lookups"] += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return self.store.get(key)

    def _retry_after_estimate(self) -> float:
        depth = len(self._queue) + sum(
            1 for e in self._inflight.values() if e.state == "running"
        )
        return min(60.0, max(1.0, depth * self._job_seconds))

    # -- event payloads ----------------------------------------------------

    @staticmethod
    def _scheduled_event(key: JobKey, state: str, dedup: bool) -> Dict:
        return {
            "event": "scheduled",
            "key": key.digest(),
            "display": key.display,
            "state": state,
            "deduplicated": dedup,
        }

    @staticmethod
    def _result_event(key: JobKey, result: RunResult, source: str) -> Dict:
        return {
            "event": "result",
            "key": key.digest(),
            "display": key.display,
            "source": source,
            "etag": etag_for(key.digest()),
            "result": result.to_dict(),
        }

    @staticmethod
    def _error_payload(exc: ReproError) -> Dict[str, Any]:
        if isinstance(exc, ConfigError):
            kind, exit_code, retryable = "config", 2, False
        elif isinstance(exc, VerificationError):
            kind, exit_code, retryable = "verification", 4, False
        else:
            kind, exit_code = "execution", 3
            retryable = isinstance(
                exc, (ExecutionError, TransientError, OSError)
            )
        return {
            "kind": kind,
            "exit_code": exit_code,
            "retryable": retryable,
            "message": str(exc),
        }

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._resume or self._queue:
                if self._resume:
                    entries, journal, jpath = self._resume.popleft()
                else:
                    entries = list(self._queue)
                    self._queue.clear()
                    journal, jpath = self._new_journal(entries)
                for entry in entries:
                    entry.state = "running"
                started = time.monotonic()
                loop = asyncio.get_running_loop()
                try:
                    results = await loop.run_in_executor(
                        None, self._run_batch, entries, journal
                    )
                except ReproError as exc:
                    self._absorb_stats()
                    self._fail_batch(entries, exc)
                else:
                    self._absorb_stats()
                    elapsed = time.monotonic() - started
                    per_job = elapsed / max(1, len(entries))
                    self._job_seconds = (
                        0.7 * self._job_seconds + 0.3 * per_job
                    )
                    self._finish_batch(entries, results)
                if jpath is not None:
                    try:
                        jpath.unlink()
                    except OSError:
                        pass

    def _run_batch(self, entries: List[_Entry], journal) -> Dict:
        """Worker-thread body: run one batch on the shared executor."""
        loop = self._loop
        by_digest = {entry.digest: entry for entry in entries}

        def progress(done: int, total: int, key: JobKey, source: str):
            entry = by_digest.get(key.digest())
            if entry is not None and loop is not None:
                loop.call_soon_threadsafe(
                    self._publish_progress, entry, done, total, source
                )

        def on_verify(key: JobKey, outcome: str, detail: Dict[str, str]):
            entry = by_digest.get(key.digest())
            if entry is not None and loop is not None:
                loop.call_soon_threadsafe(
                    self._publish_verify, entry, outcome, dict(detail)
                )

        self.executor.progress = progress
        self.executor.on_verify = on_verify
        self.executor.journal = journal
        try:
            return self.executor.run([entry.key for entry in entries])
        finally:
            self.executor.progress = None
            self.executor.on_verify = None
            self.executor.journal = None

    def _absorb_stats(self) -> None:
        stats = self.executor.stats
        self.counters["executed"] += stats.executed
        self.counters["executor_cached"] += stats.cached
        self.counters["resumed"] += stats.resumed
        self.counters["retried"] += stats.retried
        self.counters["transient_retries"] += stats.transient_retries
        self.counters["timeouts"] += stats.timeouts
        self.counters["pool_breaks"] += stats.pool_breaks
        self.counters["verified"] += stats.verified
        self.counters["verify_mismatches"] += stats.mismatches

    def _publish_progress(
        self, entry: _Entry, done: int, total: int, source: str
    ) -> None:
        event = {
            "event": "progress",
            "key": entry.digest,
            "display": entry.key.display,
            "source": source,
            "batch_done": done,
            "batch_total": total,
        }
        for sub in entry.each():
            sub.put(event)

    def _publish_verify(
        self, entry: _Entry, outcome: str, detail: Dict[str, str]
    ) -> None:
        event = {
            "event": "verify",
            "key": entry.digest,
            "display": entry.key.display,
            "outcome": outcome,
        }
        event.update(detail)
        for sub in entry.each():
            sub.put(event)

    def _finish_batch(self, entries: List[_Entry], results: Dict) -> None:
        for entry in entries:
            self._inflight.pop(entry.digest, None)
            result = results.get(entry.key)
            if result is None:
                # Defensive: the executor resolves every key or raises.
                self._settle_error(
                    entry,
                    ExecutionError(f"{entry.key.display} was not resolved"),
                )
                continue
            self.counters["completed"] += 1
            phases = result.phases
            if phases is not None:
                for sample in phases:
                    event = {
                        "event": "phase",
                        "key": entry.digest,
                        "display": entry.key.display,
                        "epoch": phases.epoch,
                        "sample": asdict(sample),
                    }
                    for sub in entry.each():
                        sub.put(event)
            event = self._result_event(entry.key, result, "run")
            for sub in entry.each():
                sub.settle(entry.digest, event)

    def _fail_batch(self, entries: List[_Entry], exc: ReproError) -> None:
        for entry in entries:
            self._inflight.pop(entry.digest, None)
            self._settle_error(entry, exc)

    def _settle_error(self, entry: _Entry, exc: ReproError) -> None:
        self.counters["failed"] += 1
        event = {
            "event": "error",
            "key": entry.digest,
            "display": entry.key.display,
            "error": self._error_payload(exc),
        }
        for sub in entry.each():
            sub.counts["failed"] += 1
            sub.settle(entry.digest, event)

    # -- batch journals & resume -------------------------------------------

    def _new_journal(self, entries: List[_Entry]):
        if self._journal_dir is None:
            return None, None
        keys = [entry.key for entry in entries]
        digest = SweepJournal.sweep_digest(keys)[:16]
        path = self._journal_dir / f"batch-{digest}.journal.jsonl"
        journal = SweepJournal(path)
        try:
            journal.begin(
                keys,
                meta={
                    "service": True,
                    "keys": [key.canonical() for key in keys],
                },
            )
        except JournalError as exc:
            if not self._warned_journal:
                self._warned_journal = True
                warnings.warn(
                    f"service batch journal unavailable ({exc}); "
                    "in-flight sweeps will not survive a daemon restart",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return None, None
        return journal, path

    def resume_pending(self) -> int:
        """Re-enqueue batches journaled by a previous daemon instance.

        Returns the number of jobs re-enqueued (already-journaled jobs
        replay instantly inside the executor; only the remainder
        actually runs). Stale or unreadable journals are skipped with a
        warning, never crash the daemon.
        """
        if self._journal_dir is None or not self._journal_dir.is_dir():
            return 0
        pending = 0
        for path in sorted(self._journal_dir.glob("batch-*.journal.jsonl")):
            journal = SweepJournal(path)
            try:
                journal.load()
                meta = (journal.header or {}).get("meta", {})
                keys = [
                    key_from_canonical(data)
                    for data in meta.get("keys", [])
                ]
            except (JournalError, ConfigError) as exc:
                warnings.warn(
                    f"skipping unusable service journal {path.name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            undone = [
                key for key in keys
                if journal.lookup(key) is None
                and key.digest() not in self._inflight
            ]
            if not undone:
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            entries = []
            for key in keys:
                if key.digest() in self._inflight:
                    continue
                entry = _Entry(key=key, digest=key.digest())
                self._inflight[entry.digest] = entry
                entries.append(entry)
            self._resume.append((entries, journal, path))
            self.counters["resumed_batches"] += 1
            pending += len(undone)
        if pending:
            self._wake.set()
        return pending

    # -- introspection -----------------------------------------------------

    @staticmethod
    def _trace_cache_metrics() -> Optional[Dict[str, Any]]:
        """Daemon-side trace-cache counters, or None when disabled.

        Worker processes keep their own instances; these counters cover
        the scheduler process (journal replays, serial fallbacks), which
        is enough to observe whether the on-disk cache is serving warm
        mmap reads or regenerating traces.
        """
        from repro.workloads.trace_cache import shared_trace_cache

        disk = shared_trace_cache()
        if disk is None:
            return None
        return disk.stats.to_dict()

    def metrics(self) -> Dict[str, Any]:
        lookups = self.counters["store_lookups"]
        hits = self.counters["store_hits"]
        running = sum(
            1 for entry in self._inflight.values()
            if entry.state == "running"
        )
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue_depth": len(self._queue),
            "inflight": len(self._inflight),
            "running": running,
            "store": {
                "lookups": lookups,
                "hits": hits,
                "hit_ratio": (hits / lookups) if lookups else 0.0,
            },
            "trace_cache": self._trace_cache_metrics(),
            "jobs": self.executor.jobs,
            "counters": dict(self.counters),
        }


__all__ = ["JobManager", "Overloaded", "Subscription", "etag_for"]
