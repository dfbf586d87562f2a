"""The reference engine: one ``cache.read``/``cache.writeback`` per record.

Slowest and most general: it needs nothing from the cache beyond the
two public access methods, so it drives every model including the
column-associative baseline (whose access flow crosses sets and has no
:class:`~repro.cache.access_path.AccessPath`). It also exercises
``geometry.split`` per access, which is exactly what the equivalence
suite wants from a reference: no precomputation shared with the faster
engines.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim.engines.base import Segment
from repro.sim.phases import PhaseMetrics, PhaseSeries
from repro.sim.stats import CacheStats


class PerAccessEngine:
    """Drive each record through the per-address entry points."""

    name = "loop"

    def supports(self, cache) -> bool:
        return True

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
        writes = stream.writes
        addrs = stream.addrs
        read = cache.read
        writeback = cache.writeback
        for w, a in zip(writes[:warm], addrs[:warm]):
            if w:
                writeback(a)
            else:
                read(a)
        cache.stats = CacheStats()
        # Caches without an observable access path (the CA baseline)
        # cannot be phase-resolved; they report phases=None.
        add_observer = getattr(cache, "add_observer", None)
        if epoch is None or add_observer is None:
            for _, start, stop in segments:
                for w, a in zip(writes[start:stop], addrs[start:stop]):
                    if w:
                        writeback(a)
                    else:
                        read(a)
            return None
        observer = PhaseMetrics(epoch, sink=phase_sink)
        add_observer(observer)
        try:
            n = len(addrs)
            for w, a in zip(writes[warm:n], addrs[warm:n]):
                if w:
                    writeback(a)
                else:
                    read(a)
        finally:
            cache.remove_observer(observer)
        return observer.result()


__all__ = ["PerAccessEngine"]
