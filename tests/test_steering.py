"""Unit tests for steering base classes and the preferred-way function."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import RandomReplacement
from repro.cache.storage import TagStore
from repro.core.steering import (
    DirectMappedSteering,
    UnbiasedSteering,
    preferred_way,
    tag_hash,
    ways_bits,
)
from repro.utils.rng import XorShift64


class TestPreferredWay:
    def test_deterministic(self):
        for tag in range(100):
            assert preferred_way(tag, 2) == preferred_way(tag, 2)

    def test_range(self):
        for ways in (2, 4, 8):
            for tag in range(1000):
                assert 0 <= preferred_way(tag, ways) < ways

    def test_balanced_across_tags(self):
        # The hash should spread preferred ways roughly evenly.
        for ways in (2, 4, 8):
            counts = [0] * ways
            for tag in range(8000):
                counts[preferred_way(tag, ways)] += 1
            for count in counts:
                assert 0.8 * 8000 / ways < count < 1.2 * 8000 / ways

    def test_conflicting_tags_decorrelated(self):
        # Tags differing by the way count (the universal-aliasing case)
        # must NOT all share a preferred way — the reason we hash.
        differing = sum(
            preferred_way(tag, 2) != preferred_way(tag + 2, 2)
            for tag in range(2000)
        )
        assert differing > 600  # ~50% expected

    def test_tag_hash_stability(self):
        assert tag_hash(12345) == tag_hash(12345)
        assert tag_hash(1) != tag_hash(2)


class TestWaysBits:
    def test_values(self):
        assert ways_bits(1) == 0
        assert ways_bits(2) == 1
        assert ways_bits(8) == 3


class TestUnbiased:
    def test_all_ways_candidates(self):
        g = CacheGeometry(8 * 1024, 4)
        steering = UnbiasedSteering(g)
        assert tuple(steering.candidate_ways(0, 123)) == (0, 1, 2, 3)

    def test_delegates_to_replacement(self):
        g = CacheGeometry(8 * 1024, 2)
        steering = UnbiasedSteering(g)
        store = TagStore(g)
        store.install(0, 0, 5)
        way = steering.choose_install_way(0, 9, 0, store, RandomReplacement(XorShift64(1)))
        assert way == 1  # random replacement prefers the invalid way

    def test_zero_storage(self):
        assert UnbiasedSteering(CacheGeometry(8 * 1024, 2)).storage_bits() == 0


class TestDirectMapped:
    def test_one_way_cache(self):
        g = CacheGeometry(8 * 1024, 1)
        steering = DirectMappedSteering(g)
        assert tuple(steering.candidate_ways(0, 77)) == (0,)
        assert steering.choose_install_way(0, 77, 0, TagStore(g), RandomReplacement()) == 0

    def test_degenerate_multiway(self):
        # PIP=100% semantics: a single tag-determined candidate.
        g = CacheGeometry(8 * 1024, 2)
        steering = DirectMappedSteering(g)
        candidates = steering.candidate_ways(0, 77)
        assert len(candidates) == 1
        assert candidates[0] == preferred_way(77, 2)
