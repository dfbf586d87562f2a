"""Address <-> (set, tag) arithmetic for set-associative caches."""

from __future__ import annotations

from repro.errors import GeometryError
from repro.utils.bitops import ilog2, is_pow2, mask


class CacheGeometry:
    """Maps byte addresses to cache coordinates.

    The DRAM cache indexes with the low line-address bits (as the alloy
    cache / KNL design does): ``set = line_addr mod num_sets`` and
    ``tag = line_addr div num_sets``. Two lines conflict iff their line
    addresses are congruent modulo ``num_sets``.
    """

    __slots__ = (
        "capacity_bytes",
        "ways",
        "line_size",
        "num_lines",
        "num_sets",
        "offset_bits",
        "index_bits",
        "_index_mask",
    )

    def __init__(self, capacity_bytes: int, ways: int, line_size: int = 64):
        if capacity_bytes <= 0:
            raise GeometryError(f"capacity must be positive, got {capacity_bytes}")
        if ways <= 0:
            raise GeometryError(f"ways must be positive, got {ways}")
        if not is_pow2(line_size):
            raise GeometryError(f"line size must be a power of two, got {line_size}")
        num_lines = capacity_bytes // line_size
        if num_lines * line_size != capacity_bytes:
            raise GeometryError("capacity must be a multiple of line size")
        if num_lines % ways != 0:
            raise GeometryError(f"{num_lines} lines not divisible by {ways} ways")
        num_sets = num_lines // ways
        if not is_pow2(num_sets):
            raise GeometryError(f"number of sets must be a power of two, got {num_sets}")

        self.capacity_bytes = capacity_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_lines = num_lines
        self.num_sets = num_sets
        self.offset_bits = ilog2(line_size)
        self.index_bits = ilog2(num_sets)
        self._index_mask = mask(self.index_bits)

    def line_addr(self, addr: int) -> int:
        """Byte address -> line address (address divided by line size)."""
        return addr >> self.offset_bits

    def set_index(self, addr: int) -> int:
        """Byte address -> set index."""
        return (addr >> self.offset_bits) & self._index_mask

    def tag(self, addr: int) -> int:
        """Byte address -> tag (line-address bits above the index)."""
        return addr >> (self.offset_bits + self.index_bits)

    def split(self, addr: int) -> tuple:
        """Byte address -> (set_index, tag) in one call (hot path)."""
        line = addr >> self.offset_bits
        return line & self._index_mask, line >> self.index_bits

    def addr_of(self, set_index: int, tag: int) -> int:
        """Reconstruct the base byte address of a cached line."""
        if not 0 <= set_index < self.num_sets:
            raise GeometryError(f"set index {set_index} out of range")
        return ((tag << self.index_bits) | set_index) << self.offset_bits

    def with_ways(self, ways: int) -> "CacheGeometry":
        """Same capacity reorganized with a different associativity."""
        return CacheGeometry(self.capacity_bytes, ways, self.line_size)

    def __repr__(self) -> str:
        return (
            f"CacheGeometry(capacity={self.capacity_bytes}, ways={self.ways}, "
            f"sets={self.num_sets}, line={self.line_size})"
        )
