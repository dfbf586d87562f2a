"""Resilient-execution primitives for the sweep engine.

Pure, dependency-light building blocks (stdlib + :mod:`repro.errors`
only, so the store and trace cache can use them without import cycles):

* :class:`BackoffPolicy` — exponential backoff with deterministic
  seeded jitter, used for transient-failure retries and pool rebuilds.
* Claim markers — tiny ``<digest>.started`` / ``<digest>.done`` files a
  worker touches around each job, letting the executor's watchdog see
  which jobs are in flight (and on which pid, since when) even after
  the worker that ran them is gone.
* :func:`quarantine_entry` — moves a corrupt on-disk cache entry (plus
  sidecars) into ``<root>/quarantine/`` with a ``.why`` sidecar instead
  of deleting it, so corruption is inspectable after the fact.
* :class:`SweepJournal` — a crash-safe append-only record of a sweep
  (``sweep.journal.jsonl``): a ``begin`` header naming the sweep
  configuration followed by one ``done`` line per completed job
  carrying the full result, enabling ``python -m repro sweep --resume``
  to finish a killed sweep by executing only the remaining jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, JournalError

__all__ = [
    "BackoffPolicy",
    "JOURNAL_VERSION",
    "SweepJournal",
    "claim_done",
    "clear_claim",
    "complete_claim",
    "quarantine_entry",
    "read_claim",
    "write_claim",
]


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempt 1, 2, 3, ... is
    ``min(base * factor**(attempt-1), max_delay)`` scaled down by up to
    ``jitter`` (a fraction in [0, 1]); the jitter draw is a pure
    function of ``(seed, attempt)``, so retry schedules are
    reproducible run to run.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.base < 0:
            raise ConfigError(f"backoff base must be >= 0, got {self.base}")
        if self.factor < 1.0:
            raise ConfigError(f"backoff factor must be >= 1, got {self.factor}")
        if self.max_delay < 0:
            raise ConfigError(
                f"backoff max_delay must be >= 0, got {self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(
                f"backoff jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        attempt = max(1, attempt)
        raw = min(self.base * self.factor ** (attempt - 1), self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{attempt}".encode("ascii")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return raw * (1.0 - self.jitter * draw)

    def sleep(self, attempt: int) -> float:
        """Sleep for ``delay(attempt)``; returns the slept duration."""
        duration = self.delay(attempt)
        if duration > 0:
            time.sleep(duration)
        return duration


# -- claim markers ---------------------------------------------------------

def _claim_base(claims_dir: Union[str, Path], digest: str) -> Path:
    return Path(claims_dir) / digest


def write_claim(claims_dir: Union[str, Path], digest: str) -> None:
    """Record that this process started the job (pid + wall clock)."""
    try:
        with open(f"{_claim_base(claims_dir, digest)}.started", "w",
                  encoding="ascii") as handle:
            handle.write(f"{os.getpid()} {time.time():.6f}")
    except OSError:
        pass  # markers are advisory; the job still runs


def complete_claim(claims_dir: Union[str, Path], digest: str) -> None:
    """Record that the job finished (its result is on the wire)."""
    try:
        with open(f"{_claim_base(claims_dir, digest)}.done", "w"):
            pass
    except OSError:
        pass


def read_claim(
    claims_dir: Union[str, Path], digest: str
) -> Optional[Tuple[int, float]]:
    """The job's ``(pid, started_at)`` claim, or None if absent/corrupt."""
    try:
        with open(f"{_claim_base(claims_dir, digest)}.started", "r",
                  encoding="ascii") as handle:
            pid_text, _, when_text = handle.read().partition(" ")
        return int(pid_text), float(when_text)
    except (OSError, ValueError):
        return None


def claim_done(claims_dir: Union[str, Path], digest: str) -> bool:
    return os.path.exists(f"{_claim_base(claims_dir, digest)}.done")


def clear_claim(claims_dir: Union[str, Path], digest: str) -> None:
    """Remove stale markers before (re)submitting the job."""
    base = _claim_base(claims_dir, digest)
    for suffix in (".started", ".done"):
        try:
            os.unlink(f"{base}{suffix}")
        except OSError:
            pass


# -- quarantine ------------------------------------------------------------

def quarantine_entry(
    path: Union[str, Path],
    root: Union[str, Path],
    reason: str,
    extras: Iterable[Union[str, Path]] = (),
) -> Optional[Path]:
    """Move a corrupt cache entry aside instead of deleting it.

    ``path`` (and any ``extras`` sidecars) are moved into
    ``<root>/quarantine/`` and a ``<name>.why`` sidecar records the
    reason, so corruption stays inspectable. Falls back to plain
    deletion when the quarantine directory cannot be created, and never
    raises: quarantine is best-effort cleanup on an already-degraded
    path. Returns the quarantined entry path, or None.
    """
    qdir: Optional[Path] = Path(root) / "quarantine"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
    except OSError:
        qdir = None
    moved: List[Path] = []
    for victim in (Path(path), *map(Path, extras)):
        if qdir is not None:
            try:
                dest = qdir / victim.name
                os.replace(victim, dest)
                moved.append(dest)
                continue
            except OSError:
                pass
        try:
            victim.unlink()
        except OSError:
            pass
    if qdir is None or not moved:
        return None
    why = qdir / f"{Path(path).name}.why"
    payload = json.dumps(
        {
            "entry": Path(path).name,
            "reason": reason,
            "quarantined_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        },
        indent=2,
        sort_keys=True,
    ) + "\n"
    # Atomic like ResultStore.put: a crash mid-write must not leave a
    # quarantined payload beside a torn (or empty) .why sidecar.
    try:
        from repro.exec.faults import SITE_QUARANTINE_WHY, fault_point

        fault_point(SITE_QUARANTINE_WHY, token=Path(path).name)
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=".why", dir=str(qdir)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, why)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass
    return moved[0]


# -- sweep journal ---------------------------------------------------------

#: Bump when the journal line layout changes incompatibly.
JOURNAL_VERSION = 1


class SweepJournal:
    """Append-only ``.jsonl`` record of one sweep's progress.

    The first line is a ``begin`` header carrying a digest of the full
    job set; every completed job appends a ``done`` line with its
    digest and serialized result (flushed and fsynced, so a kill can
    lose at most the line being written — and :meth:`load` tolerates a
    torn tail line). Because results ride in the journal itself, a
    resumed sweep replays them without depending on the result store.

    Sweeps run with ``--verify-fraction`` additionally append
    ``verify_sampled`` / ``verify_ok`` / ``verify_mismatch`` lines
    (:meth:`record_verify`); :meth:`load` collects the ok/mismatch
    outcomes so a resumed sweep never re-verifies a job the journal
    already vouches for.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.header: Optional[Dict[str, Any]] = None
        self._done: Dict[str, Dict[str, Any]] = {}
        self._verify: Dict[str, str] = {}
        self._write_failed = False

    @staticmethod
    def sweep_digest(keys: Sequence[Any]) -> str:
        """Order-insensitive content address of a sweep's job set."""
        digests = sorted({key.digest() for key in keys})
        return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()

    def begin(
        self, keys: Sequence[Any], meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Start a fresh journal (truncating any previous one)."""
        header = {
            "event": "begin",
            "version": JOURNAL_VERSION,
            "sweep": self.sweep_digest(keys),
            "total": len({key.digest() for key in keys}),
            "meta": meta or {},
        }
        try:
            if self.path.parent != Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(_dumps(header) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot start sweep journal at {self.path}: {exc}"
            ) from exc
        self.header = header
        self._done = {}
        self._verify = {}

    def load(self) -> int:
        """Parse the journal; returns the number of completed jobs.

        A torn final line (a crash mid-append) is skipped silently;
        corruption anywhere else raises :class:`JournalError`, as does
        a missing file or header.
        """
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise JournalError(f"no sweep journal at {self.path}") from None
        except OSError as exc:
            raise JournalError(
                f"cannot read sweep journal at {self.path}: {exc}"
            ) from exc
        lines = raw.split("\n")
        records: List[Dict[str, Any]] = []
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index >= len(lines) - 2:  # torn tail from a crash
                    continue
                raise JournalError(
                    f"{self.path}: corrupt journal line {index + 1}"
                ) from None
            if isinstance(record, dict):
                records.append(record)
        if not records or records[0].get("event") != "begin":
            raise JournalError(f"{self.path}: missing sweep journal header")
        if records[0].get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: unsupported journal version "
                f"{records[0].get('version')!r}"
            )
        self.header = records[0]
        self._done = {}
        self._verify = {}
        for record in records[1:]:
            event = record.get("event")
            key = record.get("key")
            if not isinstance(key, str):
                continue
            if event in ("verify_ok", "verify_mismatch"):
                # Verification state survives a kill: a resumed sweep
                # trusts (and counts) journaled verify_ok outcomes
                # instead of re-running the shadow comparison.
                self._verify[key] = event[len("verify_"):]
                continue
            if not isinstance(record.get("result"), dict):
                continue
            if event == "done":
                self._done[key] = record["result"]
        return len(self._done)

    def lookup(self, key: Any) -> Optional[Dict[str, Any]]:
        """The journaled result dict for ``key``, or None."""
        return self._done.get(key.digest())

    def record_done(self, key: Any, result: Any) -> None:
        """Append one completed job (``result`` must have ``to_dict``)."""
        payload = result.to_dict()
        self._done[key.digest()] = payload
        self._append({
            "event": "done",
            "key": key.digest(),
            "display": key.display,
            "result": payload,
        })

    def record_event(self, event: str, **fields: Any) -> None:
        """Append an informational line (retry, timeout, quarantine...)."""
        self._append({"event": event, **fields})

    def verify_outcome(self, key: Any) -> Optional[str]:
        """Journaled shadow-verification outcome: "ok", "mismatch", None."""
        return self._verify.get(key.digest())

    def record_verify(self, key: Any, outcome: str, **fields: Any) -> None:
        """Append a shadow-verification line (``verify_<outcome>``).

        ``ok``/``mismatch`` outcomes also update the in-memory map so a
        load-free reader of this instance sees them; ``sampled`` is
        informational only.
        """
        if outcome in ("ok", "mismatch"):
            self._verify[key.digest()] = outcome
        self.record_event(
            f"verify_{outcome}",
            key=key.digest(),
            display=key.display,
            **fields,
        )

    def _append(self, record: Dict[str, Any]) -> None:
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(_dumps(record) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            if not self._write_failed:
                self._write_failed = True
                warnings.warn(
                    f"sweep journal at {self.path} is not writable ({exc}); "
                    "this sweep will not be resumable",
                    RuntimeWarning,
                    stacklevel=3,
                )


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
