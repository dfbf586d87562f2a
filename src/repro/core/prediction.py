"""Way-prediction framework and conventional predictors.

A predictor names the way to probe first on a read. Its accuracy is the
fraction of *hits* whose first probe finds the line (the paper's
way-prediction accuracy metric); misses are confirmed by probing the
remaining candidate ways regardless.

Conventional predictors reproduced for Tables II and X:

* :class:`RandomPredictor` — 0B, accuracy 1/N.
* :class:`MruPredictor` — per-set MRU way; 4MB of SRAM at 4GB/2-way.
* :class:`PartialTagPredictor` — 4-bit partial tags per line; accurate
  but 32MB of SRAM at 4GB.
* :class:`PerfectPredictor` — oracle upper bound.
* :class:`StaticPreferredPredictor` — ACCORD/PWS's stateless predictor:
  always the preferred way of the tag.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.storage import TagStore
from repro.core.steering import preferred_way, ways_bits
from repro.utils.rng import SetLocalRng, XorShift64, mix64


class WayPredictor:
    """Base class; default implementation is stateless."""

    name = "base"

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.ways = geometry.ways

    def predict(self, set_index: int, tag: int, addr: int) -> int:
        """Way to probe first for this access."""
        raise NotImplementedError

    def on_access(
        self, set_index: int, tag: int, addr: int, way: Optional[int], hit: bool
    ) -> None:
        """Observe the access outcome (``way`` is None on a miss)."""

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None:
        """Observe a fill placing ``tag`` into ``way``."""

    def on_evict(self, set_index: int, tag: int, way: int) -> None:
        """Observe an eviction (lets stateful predictors invalidate)."""

    def storage_bits(self) -> int:
        """SRAM cost (Table II accounting)."""
        return 0


class RandomPredictor(WayPredictor):
    """Uniformly random first probe — the 0-byte strawman of Table II."""

    name = "rand"
    vectorizable = True  # per-set counter-based stream

    def __init__(self, geometry: CacheGeometry, rng: Optional[XorShift64] = None):
        super().__init__(geometry)
        self._rng = SetLocalRng.from_stream(rng or XorShift64(0x9A4D))

    def predict(self, set_index: int, tag: int, addr: int) -> int:
        return self._rng.next_below(set_index, self.ways)


class StaticPreferredPredictor(WayPredictor):
    """ACCORD's stateless prediction: the tag's preferred way."""

    name = "preferred"
    vectorizable = True  # stateless

    def predict(self, set_index: int, tag: int, addr: int) -> int:
        return preferred_way(tag, self.ways)


class MruPredictor(WayPredictor):
    """Per-set most-recently-used way (PSA-cache style).

    Effective when the access stream has set-level temporal locality,
    which L3-filtered DRAM-cache traffic largely lacks — accuracy
    degrades with associativity exactly as Table II shows.
    """

    name = "mru"
    vectorizable = True  # one MRU way per set

    def __init__(self, geometry: CacheGeometry):
        super().__init__(geometry)
        self._mru = np.zeros(geometry.num_sets, dtype=np.int8)

    def predict(self, set_index: int, tag: int, addr: int) -> int:
        return int(self._mru[set_index])

    def on_access(
        self, set_index: int, tag: int, addr: int, way: Optional[int], hit: bool
    ) -> None:
        if hit and way is not None:
            self._mru[set_index] = way

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None:
        self._mru[set_index] = way

    def storage_bits(self) -> int:
        return self.geometry.num_sets * max(ways_bits(self.ways), 1)


class PartialTagPredictor(WayPredictor):
    """Per-line partial tags (default 4 bits) consulted before the probe.

    Predicts the first way whose stored partial tag matches the hashed
    partial tag of the access; false positives across ways reduce
    accuracy as associativity grows. Storage is ``bits`` per line —
    32MB for a 4GB cache at 4 bits — which is why it is impractical.
    """

    name = "partial_tag"
    vectorizable = True  # partial tags are per (set, way)

    def __init__(self, geometry: CacheGeometry, bits: int = 4):
        super().__init__(geometry)
        if not 1 <= bits <= 16:
            raise ValueError(f"partial tag width must be in [1,16], got {bits}")
        self.bits = bits
        self._mask = (1 << bits) - 1
        # 0 encodes "empty"; stored value is hash|
        self._ptags = np.zeros((geometry.num_sets, geometry.ways), dtype=np.int16)

    def _hash(self, tag: int) -> int:
        return (mix64(tag) & self._mask) | (1 << self.bits)  # bit marks "valid"

    def predict(self, set_index: int, tag: int, addr: int) -> int:
        wanted = self._hash(tag)
        row = self._ptags[set_index]
        for way in range(self.ways):
            if row[way] == wanted:
                return way
        return preferred_way(tag, self.ways)

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None:
        self._ptags[set_index, way] = self._hash(tag)

    def on_evict(self, set_index: int, tag: int, way: int) -> None:
        self._ptags[set_index, way] = 0

    def storage_bits(self) -> int:
        return self.geometry.num_lines * self.bits


class PerfectPredictor(WayPredictor):
    """Oracle: always probes the correct way on a hit.

    Models the paper's "Perfect WP" upper bound. Misses still pay full
    miss-confirmation cost — perfection only removes hit mispredicts.
    """

    name = "perfect"
    vectorizable = True  # reads the (set-local) tag store only

    def __init__(self, geometry: CacheGeometry, store: TagStore):
        super().__init__(geometry)
        self._store = store

    def predict(self, set_index: int, tag: int, addr: int) -> int:
        way = self._store.find_way(set_index, tag)
        if way is not None:
            return way
        return preferred_way(tag, self.ways)
