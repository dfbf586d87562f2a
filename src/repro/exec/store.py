"""Content-addressed on-disk store for simulation results.

Results are memoized as JSON under ``<root>/<dd>/<digest>.json`` where
``digest`` is the :meth:`JobKey.digest` content address (the leading
two hex digits shard the directory). Each record carries the canonical
key alongside the result, so a lookup verifies the stored key matches
before trusting the payload, and the result's embedded
``payload_digest`` (:mod:`repro.verify.digest`) is recomputed on every
read — a digest collision, a hand-edited file, or bit-rot that keeps
the JSON parseable all degrade to a cache miss, never to a wrong
result.

Writes are atomic (temp file + ``os.replace``), so concurrent executors
sharing one store directory can only ever race to write identical
bytes. Corrupt or stale entries are *quarantined* on read — moved to
``<root>/quarantine/`` with a ``.why`` sidecar naming the reason —
never trusted and never silently deleted. A failed write degrades to
running the simulation again next time: it is counted in
``stats.degraded_writes`` and warned about once, not raised.

The root defaults to ``$REPRO_RESULTS_DIR`` or ``~/.cache/repro``.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.errors import ReproError
from repro.exec.faults import SITE_STORE_ENTRY, SITE_STORE_WRITE, fault_point
from repro.exec.jobs import RESULT_SCHEMA_VERSION, JobKey
from repro.exec.resilience import quarantine_entry
from repro.sim.system import RunResult
from repro.verify.digest import result_digest

RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"


def default_store_root() -> Path:
    """``$REPRO_RESULTS_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(RESULTS_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


@dataclass
class StoreStats:
    """Degradation counters for one store instance."""

    degraded_writes: int = 0
    quarantined: int = 0


class ResultStore:
    """Memoizes :class:`RunResult` objects keyed by :class:`JobKey`."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_store_root()
        self.stats = StoreStats()
        self._warned_write = False

    def path_for(self, key: JobKey) -> Path:
        digest = key.digest()
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, key: JobKey) -> Optional[RunResult]:
        """Stored result for ``key``, or None (quarantining bad entries).

        Checks, in order: the record's schema version, that its stored
        key equals ``key.canonical()``, that the result block names no
        unknown ``CacheStats``/``TimingBreakdown``/``PhaseSample`` field,
        and that the ``payload_digest`` recomputed from the
        *reconstructed* result equals the stored one. Any failure
        quarantines the entry. Each hit is a freshly built result that
        the caller owns.
        """
        digest = key.digest()
        # :meth:`path_for` as a string: no Path objects on the hot read.
        path = os.path.join(os.fspath(self.root), digest[:2], f"{digest}.json")
        try:
            with open(path, "rb") as handle:
                record = json.loads(handle.read().decode("utf-8"))
        except (FileNotFoundError, NotADirectoryError):
            return None  # cold cache (or unusable root): a plain miss
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._quarantine(Path(path), f"unreadable result entry: {exc}")
            return None
        try:
            stored_schema = record.get("schema") if isinstance(record, dict) \
                else None
            if stored_schema != RESULT_SCHEMA_VERSION:
                # A stale entry (e.g. a v2 record surviving at a current
                # path) is a miss, never an error: quarantine it and let
                # the job re-run under the current semantics.
                raise ValueError(
                    f"stale result schema {stored_schema!r} "
                    f"(current is {RESULT_SCHEMA_VERSION})"
                )
            if record["key"] != key.canonical():
                raise ValueError("stored key does not match lookup key")
            result = RunResult.from_dict(record["result"])
            declared = record["result"].get("payload_digest")
            recomputed = result_digest(result)
            if declared != recomputed:
                # On-disk bit-rot (or tampering) that left the JSON
                # parseable: the counters no longer match the digest
                # stamped at write time. A detected miss, never a
                # silently wrong answer.
                raise ValueError(
                    f"payload digest mismatch (stored {declared!r}, "
                    f"recomputed {recomputed})"
                )
            return result
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            self._quarantine(Path(path), f"malformed result entry: {exc}")
            return None

    def put(self, key: JobKey, result: RunResult) -> None:
        """Persist a result; a failed write is counted, never fatal."""
        path = self.path_for(key)
        record = {
            "schema": RESULT_SCHEMA_VERSION,
            "key": key.canonical(),
            "result": result.to_dict(),
        }
        try:
            fault_point(SITE_STORE_WRITE, token=key.digest())
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=str(path.parent)
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(record, handle, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.stats.degraded_writes += 1
            if not self._warned_write:
                self._warned_write = True
                warnings.warn(
                    f"result store at {self.root} is not writable ({exc}); "
                    "affected results will not be memoized "
                    "(stats.degraded_writes counts the losses)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        fault_point(SITE_STORE_ENTRY, token=key.digest(), path=str(path))

    def __contains__(self, key: JobKey) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        """Number of stored entries (walks the shard directories)."""
        if not self.root.is_dir():
            return 0
        return sum(
            1
            for shard in self.root.iterdir()
            if shard.is_dir() and shard.name != "quarantine"
            for entry in shard.glob("*.json")
            if not entry.name.startswith(".tmp-")
        )

    def _quarantine(self, path: Path, reason: str) -> None:
        self.stats.quarantined += 1
        quarantine_entry(path, self.root, reason)
        warnings.warn(
            f"result store entry {path.name} quarantined "
            f"under {self.root / 'quarantine'}: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )
