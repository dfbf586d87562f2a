"""The batched engine: drives :meth:`AccessPath.run_stream` per segment.

The hot-loop default for any cache with an access path: per-access
constant work is hoisted out of the loop and counters accumulate in
locals (see ``run_stream``). Phase-resolved serial runs attach
:class:`~repro.sim.phases.PhaseMetrics` over one ``[warm, n)`` drive
(the observer makes ``run_stream`` fall back to its exact per-access
path, as before this engine existed).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim.engines.base import Segment
from repro.sim.phases import PhaseMetrics, PhaseSeries
from repro.sim.stats import CacheStats


class StreamEngine:
    """Drive pre-split records through the access path's batch loop."""

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
        path = cache.path
        run_stream = path.run_stream
        writes = stream.writes
        sets = stream.set_indices
        tags = stream.tags
        addrs = stream.addrs
        run_stream(writes, sets, tags, addrs, 0, warm)
        cache.stats = CacheStats()
        if epoch is None:
            for _, start, stop in segments:
                run_stream(writes, sets, tags, addrs, start, stop)
            return None
        observer = PhaseMetrics(epoch, sink=phase_sink)
        cache.add_observer(observer)
        try:
            run_stream(writes, sets, tags, addrs, warm, len(addrs))
        finally:
            cache.remove_observer(observer)
        return observer.result()


__all__ = ["StreamEngine"]
