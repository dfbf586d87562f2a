"""Engine protocol and shared drive-plan helpers.

An *engine* is one strategy for driving a prepared access stream
through a cache: the reference per-address loop, the batched
``run_stream`` loop, or the whole-trace vectorized kernel. All engines
implement the same two-method contract and are bit-identical where they
overlap (asserted by ``tests/test_engines.py``); they differ only in
speed and in which caches they support.

The drive contract
------------------

``drive(cache, stream, warm, segments, epoch, ...)`` owns the *whole*
run: it warms the cache over ``[0, warm)``, resets ``cache.stats`` at
the warm boundary, drives the measured region described by
``segments``, and returns the phase series (or None). ``stream`` is any
object with ``writes`` / ``set_indices`` / ``tags`` / ``addrs``
parallel sequences — a :class:`~repro.sim.trace.TraceShard` qualifies
directly, and :class:`TraceStream` adapts a whole
:class:`~repro.sim.trace.Trace`.

``segments`` is the measurement plan: ``(epoch_id, start, stop)``
triples covering the post-warm records in order (epoch_id None when the
run is not phase-resolved). ``global_epochs`` distinguishes the two
phase-accounting modes:

* False (a serial whole-trace run): epoch ids are local and contiguous
  from 0; samples carry cumulative ``start_access`` and are delivered
  to ``phase_sink`` as they close, matching
  :class:`~repro.sim.phases.PhaseMetrics`.
* True (one shard of a set-sharded run): epoch ids are *global*; the
  engine emits bucket-style samples (``start_access=0``) that
  :meth:`~repro.sim.phases.PhaseSeries.merge` sums across shards,
  matching the shard driver's ``_EpochBuckets`` observer.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.cache.dram_cache import DramCache
from repro.cache.storage import _DENSE_LIMIT_LINES, TagStore
from repro.sim.phases import PhaseSeries
from repro.sim.trace import Trace

#: One measured region: (epoch_id or None, start, stop) in stream-local
#: record coordinates.
Segment = Tuple[Optional[int], int, int]


@runtime_checkable
class Engine(Protocol):
    """One way of driving an access stream through a cache."""

    #: Registry name (``--engine`` value).
    name: str

    def supports(self, cache) -> bool:
        """True when this engine can drive ``cache`` exactly."""
        ...

    def drive(
        self,
        cache,
        stream,
        warm: int,
        segments: Sequence[Segment],
        epoch: Optional[int],
        *,
        global_epochs: bool = False,
        phase_sink=None,
    ) -> Optional[PhaseSeries]:
        """Warm, reset stats, run the measured segments; return phases."""
        ...


class TraceStream:
    """Adapts a whole :class:`Trace` to the engine stream interface.

    Every column is resolved lazily: the split columns so engines that
    never touch them (the per-address loop driving a cache without an
    access path) do not pay for the per-geometry decomposition, and the
    ``writes``/``addrs`` lists so array engines driving an array-backed
    trace (mmap'd cache entry or shared-memory segment) never force the
    per-element list materialization.
    """

    __slots__ = ("trace", "geometry", "_columns")

    def __init__(self, trace: Trace, geometry):
        self.trace = trace
        self.geometry = geometry
        self._columns = None

    @property
    def writes(self):
        return self.trace.writes

    @property
    def addrs(self):
        return self.trace.addrs

    def _split(self):
        columns = self._columns
        if columns is None:
            columns = self.trace.split_columns(self.geometry)
            self._columns = columns
        return columns

    @property
    def set_indices(self):
        return self._split().set_indices

    @property
    def tags(self):
        return self._split().tags


def has_fresh_dense_store(cache) -> bool:
    """True when ``cache.store`` is, or will be, a fresh prefilled dense store.

    The array engines replay from build-time defaults and never touch
    the store. A plain :class:`~repro.cache.dram_cache.DramCache` that
    has not built its store yet is judged from its geometry and
    ``prefill`` flag, so the check never forces the allocation.
    """
    geometry = cache.geometry
    store = cache.__dict__.get("store")
    if store is None:
        if type(cache) is DramCache and "geometry" in cache.__dict__:
            return cache._prefill and geometry.num_lines <= _DENSE_LIMIT_LINES
        store = getattr(cache, "store", None)
    return (type(store) is TagStore and store.dense
            and store.valid_lines == geometry.num_lines)


def serial_segments(
    trace: Trace, warm: int, epoch: Optional[int]
) -> List[Segment]:
    """Measurement plan for a serial whole-trace run.

    The whole-trace counterpart of :func:`repro.sim.shard.shard_segments`
    (same epoch-id attribution: a read at post-warmup read ordinal ``r``
    belongs to epoch ``r // epoch``, a writeback after ``R`` window
    reads to ``max(R - 1, 0) // epoch``), with record positions being
    simply ``[warm, len(trace))``. Because the full read sequence is
    present, the resulting epoch ids are contiguous from 0.
    """
    n = len(trace)
    if epoch is None:
        return [(None, warm, n)]
    if warm >= n:
        return []
    prefix = trace.read_prefix()
    window_reads = prefix[warm:n] - prefix[warm]
    is_write = trace.numpy_writes()[warm:n]
    epoch_ids = np.where(
        is_write == 0,
        window_reads // epoch,
        np.maximum(window_reads - 1, 0) // epoch,
    )
    boundaries = np.flatnonzero(np.diff(epoch_ids)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(epoch_ids)]))
    return [
        (int(epoch_ids[s]), warm + int(s), warm + int(e))
        for s, e in zip(starts, stops)
    ]


__all__ = [
    "Engine", "Segment", "TraceStream", "has_fresh_dense_store", "serial_segments",
]
