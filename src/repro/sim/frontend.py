"""CPU front-end: raw load/store streams through the SRAM hierarchy.

The experiment harness drives the DRAM cache with L3-miss-level traces
directly (fast). This module models the step the paper's simulator
performs before that: a core issuing *raw* loads and stores that filter
through L1/L2/L3 (:mod:`repro.cache.sram`), with only L3 misses and L3
dirty evictions reaching the DRAM cache.

Its headline use is reproducing the paper's Section II-D observation:
temporal locality visible at L1 is *filtered out* by the SRAM levels,
which is why MRU way prediction works for L1 but collapses at the
DRAM cache. `repro.experiments.ablations` exposes this as the
``mru-filtering`` study and `tests/test_frontend.py` asserts it.

A front-end run is a pure function of its inputs, so
:func:`filtered_frontend` memoizes its output in the shared trace cache
(:mod:`repro.workloads.trace_cache`) under a :class:`FrontendKey`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.errors import SimulationError, WorkloadError
from repro.params.system import LINE_SIZE
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64, mix64
from repro.workloads.trace_cache import TRACE_SCHEMA_VERSION, shared_trace_cache

#: Version of the code a :class:`FrontendKey` memoizes: bump it whenever
#: ``RawAccessGenerator``, :mod:`repro.cache.sram` or
#: :mod:`repro.cache.hierarchy` changes the streams or hit counters a
#: front-end run produces.
FRONTEND_VERSION = 1

_LEVELS = ("l1", "l2", "l3")


@dataclass(frozen=True)
class FrontendSpec:
    """Raw-access-stream parameters for one synthetic core.

    Models the locality structure the SRAM hierarchy feeds on:
    ``burst_lines`` consecutive lines per object visit (L1/L2 spatial
    hits), ``revisit_prob`` immediate revisits of the last few objects
    (the temporal locality L1 absorbs), a working set of
    ``hot_objects`` out of ``total_objects``.
    """

    total_objects: int = 16_000
    hot_objects: int = 500
    hot_fraction: float = 0.85
    burst_lines: int = 8
    words_per_line: int = 4  # word-granular touches per line (L1 reuse)
    revisit_prob: float = 0.55
    revisit_window: int = 8
    write_frac: float = 0.25
    object_span_lines: int = 64  # objects are page-sized by default

    def __post_init__(self):
        if self.hot_objects > self.total_objects:
            raise WorkloadError("hot set larger than the object space")
        if not 0 <= self.hot_fraction <= 1:
            raise WorkloadError("hot_fraction out of range")
        if self.burst_lines < 1 or self.burst_lines > self.object_span_lines:
            raise WorkloadError("burst_lines out of range")
        if self.words_per_line < 1 or self.words_per_line > LINE_SIZE // 8:
            raise WorkloadError("words_per_line out of range")
        if self.revisit_window < 1:
            raise WorkloadError("revisit_window must be positive")


class RawAccessGenerator:
    """Produces the raw (pre-L1) access stream of one core."""

    def __init__(self, spec: FrontendSpec, seed: int = 1):
        self.spec = spec
        self._rng = XorShift64(seed)
        self._salt = mix64(seed ^ 0xF00D)
        self._recent = []

    def _pick_object(self) -> int:
        rng = self._rng
        spec = self.spec
        if self._recent and rng.next_bool(spec.revisit_prob):
            return self._recent[rng.next_below(len(self._recent))]
        if rng.next_bool(spec.hot_fraction):
            obj = rng.next_below(spec.hot_objects)
        else:
            obj = rng.next_below(spec.total_objects)
        # Scatter object ids over the address space.
        obj = mix64(obj ^ self._salt) % spec.total_objects
        self._recent.append(obj)
        if len(self._recent) > spec.revisit_window:
            self._recent.pop(0)
        return obj

    def accesses(self, count: int):
        """Yield ``count`` (addr, is_write) raw accesses."""
        if count < 1:
            raise WorkloadError("count must be positive")
        spec = self.spec
        rng = self._rng
        emitted = 0
        while emitted < count:
            obj = self._pick_object()
            base = obj * spec.object_span_lines * LINE_SIZE
            start = rng.next_below(spec.object_span_lines - spec.burst_lines + 1)
            for i in range(spec.burst_lines):
                line_base = base + (start + i) * LINE_SIZE
                # Several word-granular touches per line: the reuse an
                # L1 feeds on and the L3 filters out.
                for word in range(spec.words_per_line):
                    is_write = rng.next_bool(spec.write_frac)
                    yield line_base + word * 8, is_write
                    emitted += 1
                    if emitted >= count:
                        return


@dataclass
class FrontendResult:
    """What reached each level of the hierarchy."""

    raw_accesses: int
    l1_hit_rate: float
    l2_hit_rate: float
    l3_hit_rate: float
    dram_cache_reads: int
    dram_cache_trace: Trace

    @property
    def filter_rate(self) -> float:
        """Fraction of raw accesses absorbed before the DRAM cache."""
        if not self.raw_accesses:
            return 0.0
        return 1.0 - self.dram_cache_reads / self.raw_accesses


class _RecordingSink:
    """Stands in for the DRAM cache below L3: records the miss stream."""

    def __init__(self):
        self.addrs = []
        self.writes = bytearray()

    def read(self, addr: int):
        self.addrs.append(addr)
        self.writes.append(0)

    def writeback(self, addr: int):
        self.addrs.append(addr)
        self.writes.append(1)
        return True


@dataclass(frozen=True)
class FrontendKey:
    """Everything that determines one front-end run's output.

    A run is memoized as two trace-cache entries: ``part="filtered"``
    holds the L4-bound trace (its sidecar ``meta`` carries the SRAM
    levels' hit counters) and ``part="raw-reads"`` the raw stream's
    reads. ``levels`` are the resolved L1/L2/L3 geometries.
    """

    spec: FrontendSpec
    raw_accesses: int
    seed: int
    levels: Tuple[CacheGeometry, CacheGeometry, CacheGeometry]
    instructions_per_access: float
    part: str = "filtered"

    def canonical(self) -> str:
        """Deterministic JSON form of the key (hashed for the address)."""
        payload = {
            # `repro audit` quarantines trace-cache keys of any other schema.
            "schema": TRACE_SCHEMA_VERSION,
            "frontend": FRONTEND_VERSION,
            "part": self.part,
            "spec": asdict(self.spec),
            "raw_accesses": self.raw_accesses,
            "seed": self.seed,
            "instructions_per_access": repr(float(self.instructions_per_access)),
            "levels": {
                name: [level.capacity_bytes, level.ways, level.line_size]
                for name, level in zip(_LEVELS, self.levels)
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()


def _parse_counters(meta: Any) -> Dict[str, Any]:
    """Validate a cached entry's counters; ValueError if malformed."""
    if not isinstance(meta, dict) or set(meta) != {"cpu_accesses", *_LEVELS}:
        raise ValueError(f"expected front-end counters, got {meta!r}")

    def is_count(value) -> bool:
        return type(value) is int and value >= 0

    if not is_count(meta["cpu_accesses"]):
        raise ValueError(f"bad cpu_accesses {meta['cpu_accesses']!r}")
    for name in _LEVELS:
        pair = meta[name]
        if not (
            isinstance(pair, list) and len(pair) == 2
            and all(map(is_count, pair)) and pair[0] <= pair[1]
        ):
            raise ValueError(f"bad {name} (hits, accesses) {pair!r}")
    return meta


def _result(counters: Dict[str, Any], trace: Trace) -> FrontendResult:
    def rate(hits: int, accesses: int) -> float:
        # SramCache.hit_rate's expression: cached rates are bit-identical.
        return hits / accesses if accesses else 0.0

    return FrontendResult(
        raw_accesses=counters["cpu_accesses"],
        l1_hit_rate=rate(*counters["l1"]),
        l2_hit_rate=rate(*counters["l2"]),
        l3_hit_rate=rate(*counters["l3"]),
        dram_cache_reads=len(trace) - trace.write_count,
        dram_cache_trace=trace,
    )


def _hierarchy(
    raw_accesses: int,
    l1: Optional[CacheGeometry],
    l2: Optional[CacheGeometry],
    l3: Optional[CacheGeometry],
) -> CacheHierarchy:
    if raw_accesses < 1:
        raise SimulationError("need at least one access")
    return CacheHierarchy(_RecordingSink(), l1_geometry=l1, l2_geometry=l2,
                          l3_geometry=l3)


def _simulate(
    hierarchy: CacheHierarchy,
    spec: FrontendSpec,
    raw_accesses: int,
    seed: int,
    instructions_per_access: float,
) -> Tuple[FrontendResult, Dict[str, Any], Trace]:
    """Push one raw stream through ``hierarchy``.

    Returns the result, its integer counters (a cached entry's
    ``meta``) and the raw stream's reads.
    """
    sink = hierarchy.dram_cache
    access = hierarchy.access
    raw_reads: List[int] = []
    generator = RawAccessGenerator(spec, seed=seed)
    for addr, is_write in generator.accesses(raw_accesses):
        access(addr, is_write)
        if not is_write:
            raw_reads.append(addr)

    ipa = (
        instructions_per_access * raw_accesses / max(sink.writes.count(0), 1)
    )
    counters: Dict[str, Any] = {"cpu_accesses": hierarchy.stats.cpu_accesses}
    for name, level in zip(_LEVELS, (hierarchy.l1, hierarchy.l2, hierarchy.l3)):
        counters[name] = [level.hits, level.accesses]
    result = _result(counters, Trace("frontend", sink.addrs, sink.writes, ipa))
    raw = Trace("frontend-raw-reads", raw_reads, bytearray(len(raw_reads)), 1.0)
    return result, counters, raw


def run_frontend(
    spec: FrontendSpec,
    raw_accesses: int,
    seed: int = 1,
    l1: Optional[CacheGeometry] = None,
    l2: Optional[CacheGeometry] = None,
    l3: Optional[CacheGeometry] = None,
    instructions_per_access: float = 3.0,
) -> FrontendResult:
    """Filter a raw stream through L1/L2/L3; return the L4-bound trace.

    ``instructions_per_access`` is instructions per *raw* memory access
    (roughly 1/3 of instructions touch memory); the resulting trace's
    instruction weight is rescaled to the filtered stream so CPI math
    stays consistent.
    """
    hierarchy = _hierarchy(raw_accesses, l1, l2, l3)
    return _simulate(
        hierarchy, spec, raw_accesses, seed, instructions_per_access
    )[0]


def filtered_frontend(
    spec: FrontendSpec,
    raw_accesses: int,
    seed: int = 1,
    l1: Optional[CacheGeometry] = None,
    l2: Optional[CacheGeometry] = None,
    l3: Optional[CacheGeometry] = None,
    instructions_per_access: float = 3.0,
) -> Tuple[FrontendResult, Trace]:
    """:func:`run_frontend`, memoized, plus the raw stream's reads.

    Returns what :func:`run_frontend` returns for the same arguments
    (equal field for field) and the raw stream's read addresses as a
    write-free :class:`Trace`, both from one generation of the raw
    stream. They are stored in the shared trace cache under the two
    :class:`FrontendKey` parts, so a warm call loads both and simulates
    nothing. ``REPRO_TRACE_CACHE=0`` turns the memo off.
    """
    hierarchy = _hierarchy(raw_accesses, l1, l2, l3)
    key = FrontendKey(
        spec, raw_accesses, seed,
        (hierarchy.l1.geometry, hierarchy.l2.geometry, hierarchy.l3.geometry),
        instructions_per_access,
    )
    raw_key = replace(key, part="raw-reads")
    disk = shared_trace_cache()
    if disk is not None:
        entry = disk.get_with_meta(key, _parse_counters)
        raw_reads = disk.get(raw_key) if entry is not None else None
        if raw_reads is not None:
            trace, counters = entry
            return _result(counters, trace), raw_reads
    result, counters, raw_reads = _simulate(
        hierarchy, spec, raw_accesses, seed, instructions_per_access
    )
    if disk is not None:
        disk.put(key, result.dram_cache_trace, meta=counters)
        disk.put(raw_key, raw_reads)
    return result, raw_reads


def mru_accuracy_at_level(
    trace_like: Union[Trace, Iterable[Tuple[int, bool]]],
    geometry: CacheGeometry,
    seed: int = 1,
) -> float:
    """Measure MRU way-prediction accuracy over an access stream.

    ``trace_like`` is a :class:`Trace` or an iterable of (addr,
    is_write); writes are ignored. A Trace's columns are driven as they
    are (masked to its reads if it has writes). Used to compare MRU's
    accuracy on the raw stream (L1-like locality) vs the L3-filtered
    stream (DRAM-cache reality). The reads run on the engine
    :func:`~repro.sim.engines.resolve_engine` picks.
    """
    from repro.cache.dram_cache import DramCache
    from repro.cache.lookup import WayPredictedLookup
    from repro.cache.replacement import RandomReplacement
    from repro.core.prediction import MruPredictor
    from repro.core.steering import UnbiasedSteering
    from repro.sim.engines import TraceStream, resolve_engine, serial_segments

    cache = DramCache(
        geometry,
        lookup=WayPredictedLookup(),
        steering=UnbiasedSteering(geometry),
        predictor=MruPredictor(geometry),
        replacement=RandomReplacement(XorShift64(seed)),
    )
    if isinstance(trace_like, Trace):
        trace = trace_like
        if trace.write_count:
            reads = trace.numpy_addrs()[trace.numpy_writes() == 0]
            trace = Trace("mru", reads, np.zeros(len(reads), np.uint8), 1.0)
    else:
        reads = [addr for addr, is_write in trace_like if not is_write]
        trace = Trace("mru", reads, bytearray(len(reads)), 1.0)
    resolve_engine(cache).drive(
        cache, TraceStream(trace, geometry), 0,
        serial_segments(trace, 0, None), None,
    )
    return cache.stats.prediction_accuracy
