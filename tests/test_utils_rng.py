"""Unit tests for the deterministic RNG."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import XorShift64, mix64


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = XorShift64(42)
        b = XorShift64(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = XorShift64(1)
        b = XorShift64(2)
        assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]

    def test_zero_seed_does_not_degenerate(self):
        rng = XorShift64(0)
        values = {rng.next_u64() for _ in range(50)}
        assert len(values) == 50

    def test_snapshot_restore(self):
        rng = XorShift64(7)
        rng.next_u64()
        state = rng.getstate()
        first = [rng.next_u64() for _ in range(5)]
        restored = XorShift64(state)
        assert [restored.next_u64() for _ in range(5)] == first


class TestFork:
    def test_forks_are_independent(self):
        parent = XorShift64(9)
        c0 = parent.fork(0)
        c1 = parent.fork(1)
        assert [c0.next_u64() for _ in range(5)] != [c1.next_u64() for _ in range(5)]

    def test_fork_does_not_consume_parent(self):
        a = XorShift64(9)
        b = XorShift64(9)
        a.fork(3)
        assert a.next_u64() == b.next_u64()


class TestDistributions:
    def test_float_range(self):
        rng = XorShift64(5)
        for _ in range(1000):
            value = rng.next_float()
            assert 0.0 <= value < 1.0

    def test_float_mean_reasonable(self):
        rng = XorShift64(5)
        mean = sum(rng.next_float() for _ in range(20000)) / 20000
        assert 0.48 < mean < 0.52

    def test_below_range(self):
        rng = XorShift64(5)
        for _ in range(1000):
            assert 0 <= rng.next_below(7) < 7

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            XorShift64(1).next_below(0)

    def test_bool_probability(self):
        rng = XorShift64(5)
        hits = sum(rng.next_bool(0.85) for _ in range(20000))
        assert 0.83 < hits / 20000 < 0.87

    def test_bool_extremes(self):
        rng = XorShift64(5)
        assert not any(rng.next_bool(0.0) for _ in range(100))
        assert all(rng.next_bool(1.0) for _ in range(100))

    def test_bool_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            XorShift64(1).next_bool(1.5)


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_avalanche(self):
        # Flipping one input bit should flip roughly half the output bits.
        diff = mix64(1000) ^ mix64(1001)
        assert 16 <= bin(diff).count("1") <= 48

    @given(st.integers(min_value=0, max_value=2**63))
    def test_64bit_range(self, value):
        assert 0 <= mix64(value) < (1 << 64)
