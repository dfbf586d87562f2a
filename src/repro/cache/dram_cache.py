"""The DRAM cache: functional model with full cost accounting.

Combines a tag store, a lookup flow, an install-steering policy, a way
predictor and a replacement policy. The lookup/fill/writeback *flow*
lives in :class:`~repro.cache.access_path.AccessPath`; this class owns
the components and exposes the stable ``read``/``writeback``/``stats``
surface the simulators drive. Every access updates
:class:`repro.sim.stats.CacheStats`; the timing models turn those
counters into runtime, and the tests assert the Table I cost identities
directly against them.

Observers (:mod:`repro.cache.events`) can be attached to see the typed
event stream of every access — per-phase metrics, alternative stats
sinks, policy debugging — without touching the counters-only fast path:
with no observer registered the hot loop builds no event objects.

Writebacks from the LLC use the paper's extended DCP scheme (Section
II-B.3): the L3 keeps a presence bit *plus way bits* per line, so a
writeback to a resident line goes straight to the correct way with one
write transfer, and a writeback to a non-resident line bypasses to NVM.
Setting ``dcp=None`` models a cache without the extension, which must
probe candidate ways to locate the line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.cache.access_path import AccessOutcome, AccessPath
from repro.cache.dcp import DcpDirectory
from repro.cache.geometry import CacheGeometry
from repro.cache.lookup import WayPredictedLookup
from repro.cache.replacement import RandomReplacement, ReplacementPolicy
from repro.cache.storage import TagStore
from repro.errors import PolicyError
from repro.sim.stats import CacheStats

if TYPE_CHECKING:  # import direction is core -> cache; hints only here
    from repro.cache.events import AccessObserver
    from repro.core.prediction import WayPredictor
    from repro.core.steering import InstallSteering

__all__ = ["AccessOutcome", "DramCache"]


class DramCache:
    """Functional set-associative DRAM cache with tags-in-ECC layout."""

    def __init__(
        self,
        geometry: CacheGeometry,
        lookup,
        steering: "InstallSteering",
        predictor: Optional["WayPredictor"],
        replacement: Optional[ReplacementPolicy] = None,
        dcp: Optional[DcpDirectory] = "default",
        stats: Optional[CacheStats] = None,
        prefill: bool = True,
        observers: Iterable["AccessObserver"] = (),
    ):
        if steering.geometry.ways != geometry.ways:
            raise PolicyError("steering geometry does not match the cache")
        if isinstance(lookup, WayPredictedLookup) and predictor is None:
            raise PolicyError("way-predicted lookup needs a predictor")
        self.geometry = geometry
        # The tag store is built on first touch (__getattr__); caches
        # the array engines drive never allocate it.
        self._prefill = prefill
        self.lookup = lookup
        self.steering = steering
        self.predictor = predictor
        self.replacement = replacement or RandomReplacement()
        self.dcp = DcpDirectory() if dcp == "default" else dcp
        self.stats = stats or CacheStats()
        self.path = AccessPath()
        for observer in observers:
            self.path.add_observer(observer)

    def __getattr__(self, name):
        # Build the deferred tag store, junk-filled under ``prefill``: a
        # gigascale cache in steady state is full, so replacement (not
        # empty-way filling) governs installs.
        if name == "store" and "geometry" in self.__dict__:
            store = TagStore(self.geometry, prefill=self._prefill)
            self.store = store
            return store
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- observers ----------------------------------------------------------

    @property
    def observers(self):
        """Observers currently attached to the access path."""
        return tuple(self.path.observers)

    def add_observer(self, observer: "AccessObserver") -> None:
        """Attach an event observer (see :mod:`repro.cache.events`)."""
        self.path.add_observer(observer)

    def remove_observer(self, observer: "AccessObserver") -> None:
        """Detach an event observer (no-op if not attached)."""
        self.path.remove_observer(observer)

    # -- accesses -----------------------------------------------------------

    def read(self, addr: int) -> AccessOutcome:
        """Service one demand read; fills the line on a miss."""
        return self.path.read(self, addr)

    def read_split(self, set_index: int, tag: int, addr: int) -> AccessOutcome:
        """:meth:`read` with the (set, tag) split precomputed.

        Hot-loop entry point for drivers that batch-split the address
        stream (:meth:`repro.sim.trace.Trace.split_columns`)."""
        return self.path.read_split(self, set_index, tag, addr)

    def writeback_split(self, set_index: int, tag: int, addr: int) -> bool:
        """:meth:`writeback` with the (set, tag) split precomputed."""
        return self.path.writeback_split(self, set_index, tag, addr)

    def writeback(self, addr: int) -> bool:
        """Absorb a dirty writeback from the LLC.

        Returns True if the line was written into the cache, False if it
        bypassed to main memory.
        """
        return self.path.writeback(self, addr)

    # -- introspection ------------------------------------------------------

    def storage_overhead_bits(self) -> int:
        """SRAM overhead of steering + prediction (Table IX)."""
        total = self.steering.storage_bits()
        if self.predictor is not None:
            total += self.predictor.storage_bits()
        return total
