"""Tag-store backing for the functional cache models.

The dense mode backs tags with a flat Python ``list`` and dirty bits
with a ``bytearray``, indexed as ``set_index * ways + way``. An earlier
revision used a numpy ``(sets x ways)`` array; per-slot scalar indexing
into a numpy array costs roughly an order of magnitude more than a list
index in this access pattern (every access is a handful of single-slot
reads), so plain lists are the fast representation for the hot loop.

For gigascale unscaled geometries a dense store would be several
hundred MB of host memory, so the store also supports a sparse dict
mode that only materializes touched sets; the dense mode is the default
for the scaled experiment geometries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.errors import GeometryError

_INVALID = -1
_DENSE_LIMIT_LINES = 64 * 1024 * 1024  # above this, switch to sparse storage

# Tag of a junk-prefilled slot: far above any tag a real (<=2^52-byte)
# address space can produce, so it never matches a lookup.
JUNK_TAG = 1 << 60


class _JunkDefaultDict(dict):
    """Sparse backing store whose unmaterialized sets read as junk-filled."""

    def __init__(self, ways: int):
        super().__init__()
        self._ways = ways

    def __missing__(self, set_index):
        entry = [[JUNK_TAG, 0] for _ in range(self._ways)]
        self[set_index] = entry
        return entry


class TagStore:
    """Valid/dirty/tag state for every (set, way) slot.

    ``prefill=True`` marks every slot valid with a never-matching tag.
    That models the warm state of a long-running DRAM cache: a gigascale
    cache is effectively always full, so replacement decisions start
    from "evict something" rather than "use an empty way". Junk lines
    are clean and never hit, so they only influence victim selection.
    """

    def __init__(
        self, geometry: CacheGeometry, dense: Optional[bool] = None, prefill: bool = False
    ):
        self.geometry = geometry
        self.ways = geometry.ways
        if dense is None:
            dense = geometry.num_lines <= _DENSE_LIMIT_LINES
        self.dense = dense
        lines = geometry.num_lines
        if dense:
            self._tags: Optional[List[int]] = [JUNK_TAG if prefill else _INVALID] * lines
            self._dirty: Optional[bytearray] = bytearray(lines)
            self._sparse: Optional[Dict[int, List[List[int]]]] = None
        else:
            self._tags = None
            self._dirty = None
            self._sparse = _JunkDefaultDict(self.ways) if prefill else {}
        self.valid_lines = lines if prefill else 0

    # -- set access -------------------------------------------------------

    def _sparse_set(self, set_index: int) -> List[List[int]]:
        if isinstance(self._sparse, _JunkDefaultDict):
            return self._sparse[set_index]
        entry = self._sparse.get(set_index)
        if entry is None:
            entry = [[_INVALID, 0] for _ in range(self.geometry.ways)]
            self._sparse[set_index] = entry
        return entry

    def tag_at(self, set_index: int, way: int) -> int:
        """Tag stored in a slot, or -1 if invalid."""
        if self.dense:
            return self._tags[set_index * self.ways + way]
        return self._sparse_set(set_index)[way][0]

    def is_valid(self, set_index: int, way: int) -> bool:
        return self.tag_at(set_index, way) != _INVALID

    def is_dirty(self, set_index: int, way: int) -> bool:
        if self.dense:
            return bool(self._dirty[set_index * self.ways + way])
        return bool(self._sparse_set(set_index)[way][1])

    def set_dirty(self, set_index: int, way: int, dirty: bool = True) -> None:
        if self.dense:
            self._dirty[set_index * self.ways + way] = 1 if dirty else 0
        else:
            self._sparse_set(set_index)[way][1] = 1 if dirty else 0

    # -- lookup -----------------------------------------------------------

    def find_way(self, set_index: int, tag: int) -> Optional[int]:
        """Way holding ``tag`` in this set, or None."""
        if self.dense:
            tags = self._tags
            base = set_index * self.ways
            for way in range(self.ways):
                if tags[base + way] == tag:
                    return way
            return None
        entry = self._sparse.get(set_index)
        if entry is None:
            return None
        for way, (stored, _dirty) in enumerate(entry):
            if stored == tag:
                return way
        return None

    def find_way_among(self, set_index: int, tag: int, ways) -> Optional[int]:
        """Like :meth:`find_way` but restricted to candidate ways."""
        if self.dense:
            tags = self._tags
            base = set_index * self.ways
            for way in ways:
                if tags[base + way] == tag:
                    return way
            return None
        for way in ways:
            if self.tag_at(set_index, way) == tag:
                return way
        return None

    # -- mutation ---------------------------------------------------------

    def install(self, set_index: int, way: int, tag: int, dirty: bool = False) -> None:
        """Place ``tag`` into a slot, overwriting whatever was there."""
        if tag < 0:
            raise GeometryError(f"tags must be non-negative, got {tag}")
        if self.dense:
            slot = set_index * self.ways + way
            if self._tags[slot] == _INVALID:
                self.valid_lines += 1
            self._tags[slot] = tag
            self._dirty[slot] = 1 if dirty else 0
        else:
            entry = self._sparse_set(set_index)[way]
            if entry[0] == _INVALID:
                self.valid_lines += 1
            entry[0] = tag
            entry[1] = 1 if dirty else 0

    def evict_slot(self, set_index: int, way: int) -> "Tuple[int, bool]":
        """Read and invalidate one slot in a single call.

        Returns the ``(tag, dirty)`` pair the slot held (``(-1, False)``
        if it was already invalid). Equivalent to ``tag_at`` +
        ``is_dirty`` + ``invalidate`` but resolves the slot once — the
        access path's eviction sequence is a hot-loop miss cost.
        """
        if self.dense:
            slot = set_index * self.ways + way
            tag = self._tags[slot]
            if tag == _INVALID:
                return _INVALID, False
            dirty = bool(self._dirty[slot])
            self._tags[slot] = _INVALID
            self._dirty[slot] = 0
            self.valid_lines -= 1
            return tag, dirty
        entry = self._sparse_set(set_index)[way]
        tag = entry[0]
        if tag == _INVALID:
            return _INVALID, False
        dirty = bool(entry[1])
        entry[0] = _INVALID
        entry[1] = 0
        self.valid_lines -= 1
        return tag, dirty

    def invalidate(self, set_index: int, way: int) -> None:
        if self.dense:
            slot = set_index * self.ways + way
            if self._tags[slot] != _INVALID:
                self.valid_lines -= 1
            self._tags[slot] = _INVALID
            self._dirty[slot] = 0
        else:
            entry = self._sparse_set(set_index)[way]
            if entry[0] != _INVALID:
                self.valid_lines -= 1
            entry[0] = _INVALID
            entry[1] = 0
