"""Victim selection policies for the DRAM cache.

The paper (Section II-B.4) argues that any replacement policy whose
state must be updated on *hits* is a net loss for a tags-with-data DRAM
cache, because the state lives in DRAM next to the line and each update
is an extra DRAM write transfer. Random replacement is update-free and
is the paper's default; LRU is provided to reproduce the "LRU is 9%
worse than random" observation, NRU as a cheaper intermediate, and
SRRIP as the canonical counter-update policy.

``update_transfers_on_hit`` reports how many extra 72B write transfers
a policy performs per hit so the timing model can charge them.

All four policies are set-local: victim choice for set *s* reads only
state written by prior accesses to *s*, and the random draws come from
per-set counter-based streams. Each declares ``vectorizable``; the
vector kernel (:mod:`repro.sim.engines.vector`) keeps their state as
per-slot arrays and replays them exactly.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.storage import TagStore
from repro.utils.rng import SetLocalRng, XorShift64


@runtime_checkable
class ReplacementPolicy(Protocol):
    """Chooses a victim way among candidates; tracks recency if needed."""

    update_transfers_on_hit: int

    def victim(
        self, set_index: int, candidates: Sequence[int], store: TagStore
    ) -> int:
        """Return the way to evict (candidates is never empty)."""

    def on_hit(self, set_index: int, way: int) -> None:
        """Notify that ``way`` of ``set_index`` was hit."""

    def on_install(self, set_index: int, way: int) -> None:
        """Notify that a line was installed into ``way``."""


class RandomReplacement:
    """Update-free random victim selection (the paper's default).

    Victim draws come from a per-set counter-based stream
    (:class:`SetLocalRng`), so the choice sequence for one set does not
    depend on accesses to other sets — the property the vector kernel
    relies on when it reorders accesses across sets.
    """

    update_transfers_on_hit = 0
    vectorizable = True  # counter-based per-set stream, replayed exactly

    def __init__(self, rng: Optional[XorShift64] = None):
        self._rng = SetLocalRng.from_stream(rng or XorShift64(0xACC0))

    def victim(self, set_index: int, candidates: Sequence[int], store: TagStore) -> int:
        invalid = [w for w in candidates if not store.is_valid(set_index, w)]
        if invalid:
            return invalid[0]
        return candidates[self._rng.next_below(set_index, len(candidates))]

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def on_install(self, set_index: int, way: int) -> None:
        pass


class LruReplacement:
    """True LRU; each hit rewrites recency state stored with the line.

    The recency order itself is modelled in host memory (numpy), but the
    bandwidth cost of persisting it is charged via
    ``update_transfers_on_hit = 1`` (one extra line write per hit).
    """

    update_transfers_on_hit = 1
    # victim() compares stamps within one set only, so any per-set
    # monotone clock (the kernel uses the access index) is equivalent.
    vectorizable = True

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        # stamp[set, way]: larger = more recently used
        self._stamps = np.zeros((geometry.num_sets, geometry.ways), dtype=np.int64)
        self._clock = 0

    def _touch(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamps[set_index, way] = self._clock

    def victim(self, set_index: int, candidates: Sequence[int], store: TagStore) -> int:
        invalid = [w for w in candidates if not store.is_valid(set_index, w)]
        if invalid:
            return invalid[0]
        row = self._stamps[set_index]
        return min(candidates, key=lambda w: int(row[w]))

    def on_hit(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def on_install(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)


class NruReplacement:
    """Not-recently-used: one reference bit per line, cleared lazily.

    Cheaper than LRU but still needs a state write per first-touch hit;
    we charge the worst case of one transfer per hit.
    """

    update_transfers_on_hit = 1
    vectorizable = True  # per-set reference bits + per-set draw stream

    def __init__(self, geometry: CacheGeometry, rng: Optional[XorShift64] = None):
        self.geometry = geometry
        self._referenced = np.zeros((geometry.num_sets, geometry.ways), dtype=bool)
        self._rng = SetLocalRng.from_stream(rng or XorShift64(0x0879))

    def victim(self, set_index: int, candidates: Sequence[int], store: TagStore) -> int:
        invalid = [w for w in candidates if not store.is_valid(set_index, w)]
        if invalid:
            return invalid[0]
        row = self._referenced[set_index]
        not_recent = [w for w in candidates if not row[w]]
        if not not_recent:
            # Epoch rollover: clear the set's reference bits.
            self._referenced[set_index, :] = False
            not_recent = list(candidates)
        return not_recent[self._rng.next_below(set_index, len(not_recent))]

    def on_hit(self, set_index: int, way: int) -> None:
        self._referenced[set_index, way] = True

    def on_install(self, set_index: int, way: int) -> None:
        self._referenced[set_index, way] = True


#: Names :func:`make_replacement` accepts (case-insensitive).
REPLACEMENT_NAMES = ("random", "lru", "nru", "rrip", "srrip")


def make_replacement(
    name: str, geometry: CacheGeometry, rng: Optional[XorShift64] = None
) -> ReplacementPolicy:
    """Factory keyed by policy name: 'random', 'lru', 'nru', or
    'rrip'/'srrip' (both build :class:`RripReplacement`)."""
    lowered = name.lower()
    if lowered == "random":
        return RandomReplacement(rng)
    if lowered == "lru":
        return LruReplacement(geometry)
    if lowered == "nru":
        return NruReplacement(geometry, rng)
    if lowered in ("rrip", "srrip"):
        return RripReplacement(geometry, rng=rng)
    raise ValueError(f"unknown replacement policy {name!r}")


class RripReplacement:
    """Static RRIP (SRRIP) with re-reference interval counters.

    The paper's Section II-B.4 cites counter-update policies [23] as
    examples of replacement that needs state writes on hits; SRRIP is
    the canonical one. Inserted lines get a long re-reference
    prediction (max-1); hits promote to 0; victims are lines at the
    maximum value, aging everyone when none exists. Each hit's
    counter update is a line write to the tags-with-data array, so
    ``update_transfers_on_hit = 1``.
    """

    update_transfers_on_hit = 1
    vectorizable = True  # per-set counters + per-set draw stream

    def __init__(self, geometry: CacheGeometry, bits: int = 2,
                 rng: Optional[XorShift64] = None):
        if bits < 1:
            raise ValueError(f"RRIP needs at least 1 bit, got {bits}")
        self.geometry = geometry
        self.max_rrpv = (1 << bits) - 1
        self._rrpv = np.full(
            (geometry.num_sets, geometry.ways), self.max_rrpv, dtype=np.int8
        )
        self._rng = SetLocalRng.from_stream(rng or XorShift64(0x5121))

    def victim(self, set_index: int, candidates: Sequence[int], store: TagStore) -> int:
        invalid = [w for w in candidates if not store.is_valid(set_index, w)]
        if invalid:
            return invalid[0]
        row = self._rrpv[set_index]
        while True:
            stale = [w for w in candidates if row[w] >= self.max_rrpv]
            if stale:
                return stale[self._rng.next_below(set_index, len(stale))]
            for way in candidates:
                row[way] += 1

    def on_hit(self, set_index: int, way: int) -> None:
        self._rrpv[set_index, way] = 0

    def on_install(self, set_index: int, way: int) -> None:
        # "Long" re-reference prediction: max - 1.
        self._rrpv[set_index, way] = self.max_rrpv - 1
