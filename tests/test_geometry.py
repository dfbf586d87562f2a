"""Unit + property tests for cache geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.errors import GeometryError


class TestConstruction:
    def test_basic(self):
        g = CacheGeometry(8 * 1024, 2)
        assert g.num_lines == 128
        assert g.num_sets == 64
        assert g.offset_bits == 6
        assert g.index_bits == 6

    def test_direct_mapped(self):
        g = CacheGeometry(4 * 1024 * 1024 * 1024, 1)  # the paper's 4GB
        assert g.num_lines == 64 * 1024 * 1024
        assert g.num_sets == g.num_lines

    def test_rejects_bad_parameters(self):
        with pytest.raises(GeometryError):
            CacheGeometry(0, 1)
        with pytest.raises(GeometryError):
            CacheGeometry(8 * 1024, 0)
        with pytest.raises(GeometryError):
            CacheGeometry(8 * 1024, 1, line_size=48)
        with pytest.raises(GeometryError):
            CacheGeometry(8 * 1024, 3)  # 128/3 not integral... and sets not pow2

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(GeometryError):
            CacheGeometry(192 * 64, 1)  # 192 sets


class TestMapping:
    def test_split_matches_parts(self):
        g = CacheGeometry(8 * 1024, 2)
        for addr in (0, 64, 4096, 123456, 999999936):
            assert g.split(addr) == (g.set_index(addr), g.tag(addr))

    def test_addr_of_roundtrip(self):
        g = CacheGeometry(8 * 1024, 2)
        for set_index in (0, 1, 63):
            for tag in (0, 1, 5, 1000):
                addr = g.addr_of(set_index, tag)
                assert g.set_index(addr) == set_index
                assert g.tag(addr) == tag

    def test_addr_of_rejects_bad_set(self):
        g = CacheGeometry(8 * 1024, 2)
        with pytest.raises(GeometryError):
            g.addr_of(64, 0)

    def test_offset_ignored(self):
        g = CacheGeometry(8 * 1024, 2)
        assert g.split(4096) == g.split(4096 + 63)

    def test_way_span(self):
        g = CacheGeometry(8 * 1024, 2)
        addr = 12345 & ~63
        assert g.set_index(addr) == g.set_index(addr + 64 * 64)
        assert g.set_index(addr) != g.set_index(addr + 64)

    def test_capacity_aliases_in_all_organizations(self):
        # Lines one capacity apart share a set regardless of ways —
        # the invariant workload conflict groups rely on.
        for ways in (1, 2, 4, 8):
            g = CacheGeometry(32 * 1024, ways)
            assert g.set_index(0) == g.set_index(32 * 1024)
            assert g.set_index(4096) == g.set_index(4096 + 32 * 1024)

    def test_with_ways(self):
        g = CacheGeometry(8 * 1024, 1)
        g2 = g.with_ways(4)
        assert g2.capacity_bytes == g.capacity_bytes
        assert g2.ways == 4
        assert g2.num_sets == g.num_sets // 4


@given(
    capacity_exp=st.integers(min_value=13, max_value=24),
    ways_exp=st.integers(min_value=0, max_value=3),
    addr=st.integers(min_value=0, max_value=2**48),
)
def test_property_split_consistency(capacity_exp, ways_exp, addr):
    g = CacheGeometry(1 << capacity_exp, 1 << ways_exp)
    set_index, tag = g.split(addr)
    assert 0 <= set_index < g.num_sets
    reconstructed = g.addr_of(set_index, tag)
    # Reconstruction recovers the line-aligned address.
    assert reconstructed == (addr >> g.offset_bits) << g.offset_bits

