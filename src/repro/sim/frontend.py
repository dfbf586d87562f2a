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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.errors import SimulationError, WorkloadError
from repro.params.system import LINE_SIZE
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64, mix64


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
    if raw_accesses < 1:
        raise SimulationError("need at least one access")
    sink = _RecordingSink()
    hierarchy = CacheHierarchy(sink, l1_geometry=l1, l2_geometry=l2,
                               l3_geometry=l3)
    generator = RawAccessGenerator(spec, seed=seed)
    for addr, is_write in generator.accesses(raw_accesses):
        hierarchy.access(addr, is_write)

    stats = hierarchy.stats
    l1_rate = hierarchy.l1.hit_rate()
    l2_rate = hierarchy.l2.hit_rate()
    l3_rate = hierarchy.l3.hit_rate()
    reads = sum(1 for w in sink.writes if not w)
    ipa = (
        instructions_per_access * raw_accesses / max(reads, 1)
    )
    trace = Trace("frontend", sink.addrs, sink.writes, ipa)
    return FrontendResult(
        raw_accesses=stats.cpu_accesses,
        l1_hit_rate=l1_rate,
        l2_hit_rate=l2_rate,
        l3_hit_rate=l3_rate,
        dram_cache_reads=reads,
        dram_cache_trace=trace,
    )


def mru_accuracy_at_level(trace_like: Tuple, geometry: CacheGeometry,
                          seed: int = 1) -> float:
    """Measure MRU way-prediction accuracy over an access stream.

    ``trace_like`` is an iterable of (addr, is_write); writes are
    ignored. Used to compare MRU's accuracy on the raw stream (L1-like
    locality) vs the L3-filtered stream (DRAM-cache reality). The reads
    run on the engine :func:`~repro.sim.engines.resolve_engine` picks.
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
    reads = [addr for addr, is_write in trace_like if not is_write]
    trace = Trace("mru", reads, bytearray(len(reads)), 1.0)
    resolve_engine(cache).drive(
        cache, TraceStream(trace, geometry), 0,
        serial_segments(trace, 0, None), None,
    )
    return cache.stats.prediction_accuracy
