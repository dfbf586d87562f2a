"""Tests for the SRAM cache models and the 4-level hierarchy glue."""

import pytest

from repro.cache.dram_cache import DramCache
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.lookup import SerialLookup
from repro.cache.sram import SramCache
from repro.core.steering import DirectMappedSteering
from repro.errors import PolicyError


class TestSramCache:
    def test_hit_after_fill(self):
        cache = SramCache(CacheGeometry(4 * 1024, 4))
        assert not cache.access(0x100).hit
        assert cache.access(0x100).hit
        assert cache.hit_rate() == 0.5

    def test_lru_eviction_order(self):
        geometry = CacheGeometry(2 * 64 * 2, 2)  # 2 sets x 2 ways
        cache = SramCache(geometry)
        span = geometry.num_sets * geometry.line_size
        a, b, c = 0, span, 2 * span  # same set
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is MRU
        cache.access(c)  # evicts b (LRU)
        assert cache.access(a).hit
        assert cache.access(c).hit
        assert not cache.access(b).hit

    def test_dirty_eviction_returns_victim(self):
        geometry = CacheGeometry(2 * 64 * 2, 2)
        cache = SramCache(geometry)
        span = geometry.num_sets * geometry.line_size
        cache.access(0, is_write=True)
        cache.access(span)
        result = cache.access(2 * span)  # evicts dirty line 0
        assert result.evicted_dirty_addr == 0
        assert cache.writebacks_out == 1

    def test_clean_eviction_no_victim(self):
        geometry = CacheGeometry(2 * 64 * 2, 2)
        cache = SramCache(geometry)
        span = geometry.num_sets * geometry.line_size
        cache.access(0)
        cache.access(span)
        result = cache.access(2 * span)
        assert result.evicted_dirty_addr is None

    def test_write_hit_sets_dirty(self):
        geometry = CacheGeometry(2 * 64 * 2, 2)
        cache = SramCache(geometry)
        span = geometry.num_sets * geometry.line_size
        cache.access(0)
        cache.access(0, is_write=True)  # hit-write marks dirty
        cache.access(span)
        result = cache.access(2 * span)
        assert result.evicted_dirty_addr == 0

    def test_mpki(self):
        cache = SramCache(CacheGeometry(4 * 1024, 4))
        for i in range(100):
            cache.access(i * 64 * 64)  # all misses (distinct sets mostly)
        assert cache.mpki(100_000) == pytest.approx(1000.0 * cache.misses / 100_000)
        with pytest.raises(PolicyError):
            cache.mpki(0)


class TestHierarchy:
    def _dram_cache(self):
        geometry = CacheGeometry(1 * 1024 * 1024, 1)
        return DramCache(
            geometry,
            lookup=SerialLookup(),
            steering=DirectMappedSteering(geometry),
            predictor=None,
        )

    def test_filtering(self):
        hierarchy = CacheHierarchy(self._dram_cache())
        for _ in range(10):
            hierarchy.access(0x1000)
        stats = hierarchy.stats
        assert stats.cpu_accesses == 10
        assert stats.l1_hits == 9  # first access misses everywhere
        assert hierarchy.dram_cache.stats.demand_reads == 1

    def test_l3_miss_reaches_dram_cache(self):
        hierarchy = CacheHierarchy(self._dram_cache())
        # Stream far more distinct lines than L1/L2 capacity.
        for i in range(3000):
            hierarchy.access(i * 64)
        assert hierarchy.stats.dram_cache_reads > 0
        assert hierarchy.stats.dram_cache_reads == hierarchy.dram_cache.stats.demand_reads

    def test_dirty_l3_eviction_becomes_writeback(self):
        # Tiny L3 to force dirty evictions quickly.
        hierarchy = CacheHierarchy(
            self._dram_cache(),
            l1_geometry=CacheGeometry(2 * 64 * 2, 2),
            l2_geometry=CacheGeometry(4 * 64 * 2, 2),
            l3_geometry=CacheGeometry(8 * 64 * 2, 2),
        )
        for i in range(500):
            hierarchy.access(i * 64, is_write=True)
        assert hierarchy.stats.dram_cache_writebacks > 0
        assert hierarchy.dram_cache.stats.writebacks_in == (
            hierarchy.stats.dram_cache_writebacks
        )

    def test_l3_miss_rate(self):
        hierarchy = CacheHierarchy(self._dram_cache())
        for i in range(1000):
            hierarchy.access(i * 64 * 64)
        assert hierarchy.l3.misses > 0
        assert 0.0 <= hierarchy.l3.hit_rate() < 1.0
