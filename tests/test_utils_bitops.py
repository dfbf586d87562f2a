"""Unit tests for repro.utils.bitops."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.utils.bitops import bit_field, ceil_div, ilog2, is_pow2, mask


class TestIsPow2:
    def test_powers(self):
        for exp in range(0, 40):
            assert is_pow2(1 << exp)

    def test_non_powers(self):
        for value in (0, -1, -2, 3, 5, 6, 7, 9, 100, 1000):
            assert not is_pow2(value)


class TestIlog2:
    def test_exact(self):
        assert ilog2(1) == 0
        assert ilog2(64) == 6
        assert ilog2(1 << 33) == 33

    def test_rejects_non_power(self):
        with pytest.raises(GeometryError):
            ilog2(3)
        with pytest.raises(GeometryError):
            ilog2(0)

    @given(st.integers(min_value=0, max_value=62))
    def test_roundtrip(self, exp):
        assert ilog2(1 << exp) == exp


class TestMask:
    def test_values(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF

    def test_negative_rejected(self):
        with pytest.raises(GeometryError):
            mask(-1)


class TestBitField:
    def test_extract(self):
        assert bit_field(0b110100, 2, 3) == 0b101
        assert bit_field(0xFF00, 8, 8) == 0xFF

    def test_zero_width(self):
        assert bit_field(0xFFFF, 4, 0) == 0

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=60),
           st.integers(min_value=0, max_value=16))
    def test_bounded(self, value, low, width):
        assert 0 <= bit_field(value, low, width) < (1 << width) or width == 0


class TestCeilDiv:
    def test_exact_and_rounding(self):
        assert ceil_div(8, 4) == 2
        assert ceil_div(9, 4) == 3
        assert ceil_div(0, 4) == 0

    def test_bad_denominator(self):
        with pytest.raises(GeometryError):
            ceil_div(1, 0)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=10**6))
    def test_matches_definition(self, n, d):
        assert ceil_div(n, d) == (n + d - 1) // d
