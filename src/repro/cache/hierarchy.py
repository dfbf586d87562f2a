"""Four-level cache hierarchy glue (Table III: L1, L2, L3, L4=DRAM cache).

Raw CPU accesses flow through the SRAM levels; L3 misses become DRAM
cache reads, and L3 dirty evictions become DRAM cache writebacks (the
paper's writeback-probe discussion). Used by integration tests and the
quickstart example; the experiment harness drives the DRAM cache with
pre-filtered traces for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.sram import SramCache


@dataclass
class HierarchyStats:
    cpu_accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_cache_reads: int = 0
    dram_cache_writebacks: int = 0


class CacheHierarchy:
    """L1 -> L2 -> L3 -> DRAM cache, inclusive-of-nothing (simple miss path)."""

    def __init__(
        self,
        dram_cache,
        l1_geometry: Optional[CacheGeometry] = None,
        l2_geometry: Optional[CacheGeometry] = None,
        l3_geometry: Optional[CacheGeometry] = None,
    ):
        self.l1 = SramCache(l1_geometry or CacheGeometry(32 * 1024, 8), "L1")
        self.l2 = SramCache(l2_geometry or CacheGeometry(256 * 1024, 8), "L2")
        self.l3 = SramCache(l3_geometry or CacheGeometry(8 * 1024 * 1024, 16), "L3")
        self.dram_cache = dram_cache
        self.stats = HierarchyStats()

    def access(self, addr: int, is_write: bool = False) -> None:
        """Send one CPU access down the hierarchy."""
        stats = self.stats
        stats.cpu_accesses += 1
        if self.l1.access(addr, is_write).hit:
            stats.l1_hits += 1
            return
        if self.l2.access(addr, is_write).hit:
            stats.l2_hits += 1
            return
        l3_result = self.l3.access(addr, is_write)
        if l3_result.evicted_dirty_addr is not None:
            stats.dram_cache_writebacks += 1
            self.dram_cache.writeback(l3_result.evicted_dirty_addr)
        if l3_result.hit:
            stats.l3_hits += 1
            return
        stats.dram_cache_reads += 1
        self.dram_cache.read(addr)
