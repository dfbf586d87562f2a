"""The split-column engine: per-access drive over pre-split columns.

Drives :meth:`AccessPath.read_split` / :meth:`AccessPath.writeback_split`
once per record over the trace's vectorized (set, tag) split
(:meth:`~repro.sim.trace.Trace.split_columns`), so ``geometry.split``
never runs per access. Phase-resolved runs attach
:class:`~repro.sim.phases.PhaseMetrics` over one ``[warm, n)`` drive.
It serves ``--engine stream`` and the policy stacks neither array
kernel models: GWS over LRU/NRU/RRIP replacement, and the finite DCP
under a non-GWS stack (the replay kernel models it under GWS).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim.engines.base import Segment
from repro.sim.phases import PhaseMetrics, PhaseSeries
from repro.sim.stats import CacheStats


class StreamEngine:
    """Drive pre-split records through the access path, one at a time."""

    name = "stream"

    def supports(self, cache) -> bool:
        return getattr(cache, "path", None) is not None

    def drive(
        self,
        cache,
        stream,
        warm: int,
        segments: Sequence[Segment],
        epoch: Optional[int],
        *,
        phase_sink=None,
    ) -> Optional[PhaseSeries]:
        read_split = cache.path.read_split
        writeback_split = cache.path.writeback_split
        writes = stream.writes
        sets = stream.set_indices
        tags = stream.tags
        addrs = stream.addrs

        def run(start: int, stop: int) -> None:
            for w, s, t, a in zip(
                writes[start:stop], sets[start:stop], tags[start:stop],
                addrs[start:stop],
            ):
                if w:
                    writeback_split(cache, s, t, a)
                else:
                    read_split(cache, s, t, a)

        run(0, warm)
        cache.stats = CacheStats()
        if epoch is None:
            for _, start, stop in segments:
                run(start, stop)
            return None
        observer = PhaseMetrics(epoch, sink=phase_sink)
        cache.add_observer(observer)
        try:
            run(warm, len(addrs))
        finally:
            cache.remove_observer(observer)
        return observer.result()


__all__ = ["StreamEngine"]
