"""On-chip SRAM caches (L1/L2/L3) for driving the DRAM cache with a
filtered miss stream.

The paper's experiments feed the DRAM cache with L3 miss traffic. Our
synthetic workloads generate that traffic directly, but the SRAM models
let integration tests and examples start from a raw CPU access stream
and reproduce the filtering effect (loss of temporal locality) that
makes MRU way prediction poor at the DRAM-cache level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.errors import PolicyError


@dataclass
class SramAccessResult:
    hit: bool
    evicted_dirty_addr: Optional[int]  # base address of a dirty victim, if any


class SramCache:
    """Set-associative writeback SRAM cache with true-LRU replacement."""

    def __init__(self, geometry: CacheGeometry, name: str = "sram"):
        self.geometry = geometry
        self.name = name
        # Per set: list of [tag, dirty] in LRU order (index 0 = LRU).
        self._sets = {}
        self.hits = 0
        self.misses = 0
        self.writebacks_out = 0

    def _set(self, index: int):
        entry = self._sets.get(index)
        if entry is None:
            entry = []
            self._sets[index] = entry
        return entry

    def access(self, addr: int, is_write: bool = False) -> SramAccessResult:
        """Access one line; fills on miss; returns dirty victim if evicted."""
        set_index, tag = self.geometry.split(addr)
        ways = self._set(set_index)
        for position, slot in enumerate(ways):
            if slot[0] == tag:
                self.hits += 1
                ways.append(ways.pop(position))  # move to MRU
                if is_write:
                    slot[1] = True
                return SramAccessResult(hit=True, evicted_dirty_addr=None)

        self.misses += 1
        victim_addr = None
        if len(ways) >= self.geometry.ways:
            victim_tag, victim_dirty = ways.pop(0)
            if victim_dirty:
                self.writebacks_out += 1
                victim_addr = self.geometry.addr_of(set_index, victim_tag)
        ways.append([tag, is_write])
        return SramAccessResult(hit=False, evicted_dirty_addr=victim_addr)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction given an instruction count."""
        if instructions <= 0:
            raise PolicyError("instruction count must be positive")
        return 1000.0 * self.misses / instructions
