"""Engine protocol and shared drive-plan helpers.

An *engine* is one strategy for driving a prepared access stream
through a cache: the reference per-address loop, the per-access drive
over pre-split columns, or one of the two whole-trace array kernels
(vector, sparse replay). All engines
implement the same two-method contract and are bit-identical where they
overlap (asserted by ``tests/test_engines.py``); they differ only in
speed and in which caches they support.

The drive contract
------------------

``drive(cache, stream, warm, segments, epoch, ...)`` owns the *whole*
run: it warms the cache over ``[0, warm)``, resets ``cache.stats`` at
the warm boundary, drives the measured region described by
``segments``, and returns the phase series (or None). ``stream`` is a
:class:`TraceStream`: the whole :class:`~repro.sim.trace.Trace`
(``stream.trace``, whose numpy columns the array kernels read) plus
the per-drive ``writes`` / ``set_indices`` / ``tags`` / ``addrs``
Python lists the per-access engines walk.

``segments`` is the measurement plan: ``(epoch_id, start, stop)``
triples covering the post-warm records in order (epoch_id None when the
run is not phase-resolved). Epoch ids are contiguous from 0; samples
carry cumulative ``start_access`` and are delivered to ``phase_sink``
as they close, matching :class:`~repro.sim.phases.PhaseMetrics`.
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
        stream: TraceStream,
        warm: int,
        segments: Sequence[Segment],
        epoch: Optional[int],
        *,
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
    trace (e.g. an mmap'd trace-cache entry) never force the per-element
    list materialization. The lists are
    :meth:`Trace.scalar_columns` and :meth:`Trace.split_columns`, held
    by the stream and not the trace, so a memoized trace does not keep
    them after the drive.
    """

    __slots__ = ("trace", "geometry", "_columns", "_scalar")

    def __init__(self, trace: Trace, geometry):
        self.trace = trace
        self.geometry = geometry
        self._columns = None
        self._scalar = None

    def _scalar_columns(self):
        scalar = self._scalar
        if scalar is None:
            scalar = self.trace.scalar_columns()
            self._scalar = scalar
        return scalar

    @property
    def writes(self):
        return self._scalar_columns()[1]

    @property
    def addrs(self):
        return self._scalar_columns()[0]

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

    A read at post-warmup read ordinal ``r`` belongs to epoch
    ``r // epoch``; a writeback after ``R`` window reads belongs to
    ``max(R - 1, 0) // epoch``, mirroring PhaseMetrics' flush-on-next-read
    attribution. Records ``[warm, len(trace))`` are covered in order, so
    the resulting epoch ids are contiguous from 0.
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
