"""Content-addressed on-disk cache for generated workload traces.

Trace generation is pure: the synthetic generators are seeded and the
workload catalog is static, so a trace is fully determined by *what was
asked for* — workload, cache capacity, access count, seed and footprint
scale. :class:`TraceKey` canonicalizes that request (embedding the
resolved :class:`~repro.workloads.spec.WorkloadSpec` payloads, so a
catalog retune invalidates stale entries) and hashes it to a SHA-256
content address, mirroring the result store
(:mod:`repro.exec.store`) that memoizes simulation outputs.

Entries live under ``<root>/<dd>/<digest>.npz`` in the binary trace
format (:func:`repro.sim.trace.save_trace_npz`) with a ``.key.json``
sidecar holding the canonical key; a lookup verifies the sidecar before
trusting the payload, so a digest collision or hand-edited file
degrades to a cache miss and regeneration, never to a wrong trace.
Writes are atomic (temp file + ``os.replace``); concurrent sweep
workers sharing one cache directory can only race to write identical
bytes. An unwritable cache warns once and degrades to regenerating;
each lost write is counted in ``stats.degraded_writes``. Corrupt or
truncated entries (payload *or* sidecar) are quarantined on read —
moved to ``<root>/quarantine/`` with a ``.why`` sidecar naming the
reason — and the trace is regenerated from its seed, bit-identically.

The root defaults to ``$REPRO_TRACE_DIR``, else
``$REPRO_RESULTS_DIR/traces``, else ``~/.cache/repro/traces``. Setting
``REPRO_TRACE_CACHE=0`` disables the cache entirely.

The cache holds three kinds of entry, told apart by their key:

* :class:`TraceKey` — a generated workload trace (the DRAM-cache
  request stream every simulation job replays);
* :class:`repro.sim.frontend.FrontendKey` — the output of one CPU
  front-end run: the L3-filtered stream, whose sidecar also carries the
  SRAM levels' hit counters as ``meta``, and the raw stream's reads;
* :class:`repro.experiments.fig6_cyclic.CyclicKey` — Figure 6 at one
  N: the (a,b)^N kernel trace, whose sidecar ``meta`` carries the
  per-PIP simulated hit rates and a sha256 over them.

All satisfy :class:`CacheKey` (``canonical()``/``digest()``), which is
all the cache asks of a key. ``TRACE_SCHEMA_VERSION`` doubles as the
workload generator version: bump it whenever
:mod:`repro.workloads.synthetic` or the mix interleaving in
:mod:`repro.workloads.mixes` changes the bytes they produce, so stale
cached traces can never leak into new results. Bump
``repro.sim.frontend.FRONTEND_VERSION`` whenever ``RawAccessGenerator``,
:mod:`repro.cache.sram` or :mod:`repro.cache.hierarchy` changes the
streams or hit counters a front-end run produces.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Protocol, Tuple, TypeVar, Union

# NOTE: repro.exec.{faults,resilience} are imported lazily inside the
# methods that need them: importing anything under repro.exec at module
# scope would run repro/exec/__init__.py, which (via jobs -> sim.runner)
# imports this module back while it is still initializing.

from repro.errors import TraceError, WorkloadError
from repro.sim.trace import Trace, load_trace_npz, save_trace_npz
from repro.workloads.mixes import MIX_RECIPES
from repro.workloads.spec import get_workload, is_mix

#: Version of the key schema AND of the trace generators it memoizes.
TRACE_SCHEMA_VERSION = 1

TRACE_DIR_ENV = "REPRO_TRACE_DIR"
TRACE_CACHE_TOGGLE_ENV = "REPRO_TRACE_CACHE"
_RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"


M = TypeVar("M")


class CacheKey(Protocol):
    """What the cache needs of a key: a canonical form and its address."""

    def canonical(self) -> str: ...

    def digest(self) -> str: ...


def trace_cache_enabled() -> bool:
    """False when ``REPRO_TRACE_CACHE=0`` opts out of on-disk memoizing."""
    return os.environ.get(TRACE_CACHE_TOGGLE_ENV, "1") != "0"


def default_trace_root() -> Path:
    """``$REPRO_TRACE_DIR``, else ``$REPRO_RESULTS_DIR/traces``, else
    ``~/.cache/repro/traces``."""
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env)
    results = os.environ.get(_RESULTS_DIR_ENV)
    if results:
        return Path(results) / "traces"
    return Path.home() / ".cache" / "repro" / "traces"


def _workload_payload(
    workload: str, footprint_scale: float
) -> Dict[str, Any]:
    """Resolved generator inputs for a workload name.

    Embeds the scaled :class:`WorkloadSpec` field values (for a mix, of
    every member at the mix's per-member 1/16 scale), so editing the
    catalog — or the mix recipes — changes the key.
    """
    if is_mix(workload):
        recipe = MIX_RECIPES.get(workload)
        if recipe is None:
            raise WorkloadError(f"unknown mix {workload!r}")
        return {
            "members": [
                asdict(get_workload(member).scaled(footprint_scale / 16.0))
                for member in recipe
            ],
        }
    return {"spec": asdict(get_workload(workload).scaled(footprint_scale))}


@dataclass(frozen=True)
class TraceKey:
    """Everything that determines one generated trace's bytes."""

    workload: str
    capacity_bytes: int
    num_accesses: int
    seed: int
    footprint_scale: float

    def canonical(self) -> str:
        """Deterministic JSON form of the key (hashed for the address)."""
        payload = {
            "schema": TRACE_SCHEMA_VERSION,
            "workload": self.workload,
            "capacity_bytes": self.capacity_bytes,
            "num_accesses": self.num_accesses,
            "seed": self.seed,
            # repr() keeps float identity exact across json round trips.
            "footprint_scale": repr(float(self.footprint_scale)),
            "generator": _workload_payload(self.workload, self.footprint_scale),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()


@dataclass
class TraceCacheStats:
    """Hit/miss and degradation counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    degraded_writes: int = 0
    quarantined: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready form (``profile`` output and ``/metrics``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_read": self.bytes_read,
            "degraded_writes": self.degraded_writes,
            "quarantined": self.quarantined,
        }


class TraceCache:
    """Memoizes :class:`Trace` objects under any :class:`CacheKey`."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_trace_root()
        self.stats = TraceCacheStats()
        self._warned_write = False

    def path_for(self, key: CacheKey) -> Path:
        digest = key.digest()
        return self.root / digest[:2] / f"{digest}.npz"

    def _key_path(self, path: Path) -> Path:
        return path.with_suffix(".key.json")

    def get(self, key: CacheKey) -> Optional[Trace]:
        """Stored trace for ``key``, or None (quarantining bad entries).

        Warm hits are loaded with memory-mapped column arrays (the list
        forms materialize lazily only for scalar engines) and tagged
        with ``cache_token = key.digest()`` so engine plan memos can
        recognize the same trace across loads and processes.
        """
        entry = self._load(key, None)
        return None if entry is None else entry[0]

    def get_with_meta(
        self, key: CacheKey, parse_meta: Callable[[Any], M]
    ) -> Optional[Tuple[Trace, M]]:
        """Like :meth:`get`, plus ``parse_meta`` of the ``meta`` the entry
        was :meth:`put` with.

        ``parse_meta`` receives the sidecar's ``meta`` object (None when
        the entry has none) and raises ``ValueError``/``TypeError`` to
        reject it; a rejected entry is quarantined like any corrupt one.
        """
        return self._load(key, parse_meta)

    def _load(
        self, key: CacheKey, parse_meta: Optional[Callable[[Any], M]]
    ) -> Optional[Tuple[Trace, Optional[M]]]:
        path = self.path_for(key)
        key_path = self._key_path(path)
        try:
            with open(key_path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            self.stats.misses += 1
            return None  # cold cache (or unusable root): a plain miss
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._quarantine(path, f"unreadable key sidecar: {exc}")
            self.stats.misses += 1
            return None
        if not isinstance(record, dict) or record.get("key") != key.canonical():
            self._quarantine(path, "key sidecar does not match lookup key")
            self.stats.misses += 1
            return None
        meta = None
        if parse_meta is not None:
            try:
                meta = parse_meta(record.get("meta"))
            except (TypeError, ValueError) as exc:
                self._quarantine(path, f"bad meta in key sidecar: {exc}")
                self.stats.misses += 1
                return None
        try:
            size = path.stat().st_size
            trace = load_trace_npz(str(path), mmap=True)
        except FileNotFoundError:
            self._quarantine(path, "key sidecar without npz payload")
            self.stats.misses += 1
            return None
        except (OSError, TraceError) as exc:
            self._quarantine(path, f"corrupt npz payload: {exc}")
            self.stats.misses += 1
            return None
        trace.cache_token = key.digest()
        self.stats.hits += 1
        self.stats.bytes_read += size
        return trace, meta

    def put(
        self, key: CacheKey, trace: Trace, meta: Optional[Any] = None
    ) -> None:
        """Persist a trace; a failed write is counted, never fatal.

        ``meta`` (any JSON value) rides in the same atomic sidecar write
        as the key; :meth:`get_with_meta` reads it back.
        """
        from repro.exec.faults import (
            SITE_TRACE_ENTRY,
            SITE_TRACE_WRITE,
            fault_point,
        )

        path = self.path_for(key)
        try:
            fault_point(SITE_TRACE_WRITE, token=key.digest())
            path.parent.mkdir(parents=True, exist_ok=True)
            self._write_atomic_npz(path, trace)
            self._write_atomic_key(self._key_path(path), key, meta)
        except (OSError, TraceError) as exc:
            self.stats.degraded_writes += 1
            if not self._warned_write:
                self._warned_write = True
                warnings.warn(
                    f"trace cache at {self.root} is not writable ({exc}); "
                    "affected traces will not be memoized "
                    "(stats.degraded_writes counts the losses)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        fault_point(SITE_TRACE_ENTRY, token=key.digest(), path=str(path))

    @staticmethod
    def _write_atomic_npz(path: Path, trace: Trace) -> None:
        # The .npz suffix matters: numpy appends one to suffix-less
        # paths, which would orphan the temp file.
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=".npz", dir=str(path.parent)
        )
        os.close(fd)
        try:
            save_trace_npz(trace, tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def _write_atomic_key(
        key_path: Path, key: CacheKey, meta: Optional[Any]
    ) -> None:
        record = {"schema": TRACE_SCHEMA_VERSION, "key": key.canonical()}
        if meta is not None:
            record["meta"] = meta
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=str(key_path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(tmp, key_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: CacheKey) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        """Number of stored traces (walks the shard directories)."""
        if not self.root.is_dir():
            return 0
        return sum(
            1
            for shard in self.root.iterdir()
            if shard.is_dir() and shard.name != "quarantine"
            for entry in shard.glob("*.npz")
            if not entry.name.startswith(".tmp-")
        )

    def _quarantine(self, path: Path, reason: str) -> None:
        from repro.exec.resilience import quarantine_entry

        self.stats.quarantined += 1
        quarantine_entry(
            path, self.root, reason, extras=(self._key_path(path),)
        )
        warnings.warn(
            f"trace cache entry {path.name} quarantined "
            f"under {self.root / 'quarantine'}: {reason}",
            RuntimeWarning,
            stacklevel=4,
        )


_SHARED: Dict[str, TraceCache] = {}


def shared_trace_cache() -> Optional[TraceCache]:
    """Process-wide cache instance for the current root, or None.

    Returns None when ``REPRO_TRACE_CACHE=0``. Instances are shared per
    resolved root so the warn-once-on-unwritable state is not reset by
    every :class:`~repro.sim.runner.TraceFactory` construction.
    """
    if not trace_cache_enabled():
        return None
    root = str(default_trace_root())
    cache = _SHARED.get(root)
    if cache is None:
        cache = TraceCache(root)
        _SHARED[root] = cache
    return cache
