"""Unit tests for the tag store (dense and sparse modes, prefill)."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.storage import JUNK_TAG, TagStore
from repro.errors import GeometryError


@pytest.fixture(params=[True, False], ids=["dense", "sparse"])
def store(request):
    return TagStore(CacheGeometry(8 * 1024, 2), dense=request.param)


class TestBasics:
    def test_starts_invalid(self, store):
        assert not store.is_valid(0, 0)
        assert store.tag_at(0, 0) == -1
        assert store.find_way(0, 5) is None
        assert store.occupancy() == 0.0

    def test_install_and_find(self, store):
        store.install(3, 1, 42)
        assert store.is_valid(3, 1)
        assert store.tag_at(3, 1) == 42
        assert store.find_way(3, 42) == 1
        assert store.find_way(3, 43) is None
        assert store.valid_lines == 1

    def test_install_overwrite_keeps_count(self, store):
        store.install(3, 1, 42)
        store.install(3, 1, 43)
        assert store.valid_lines == 1
        assert store.find_way(3, 42) is None
        assert store.find_way(3, 43) == 1

    def test_install_rejects_negative_tag(self, store):
        with pytest.raises(GeometryError):
            store.install(0, 0, -3)

    def test_invalidate(self, store):
        store.install(2, 0, 7)
        store.invalidate(2, 0)
        assert not store.is_valid(2, 0)
        assert store.valid_lines == 0
        store.invalidate(2, 0)  # idempotent
        assert store.valid_lines == 0

    def test_dirty_bits(self, store):
        store.install(1, 0, 9, dirty=True)
        assert store.is_dirty(1, 0)
        store.set_dirty(1, 0, False)
        assert not store.is_dirty(1, 0)

    def test_find_way_among(self, store):
        store.install(4, 1, 11)
        assert store.find_way_among(4, 11, (0,)) is None
        assert store.find_way_among(4, 11, (0, 1)) == 1

    def test_invalid_ways(self, store):
        assert store.invalid_ways(5) == [0, 1]
        store.install(5, 0, 1)
        assert store.invalid_ways(5) == [1]


class TestPrefill:
    def test_prefill_marks_everything_valid(self, store):
        store.prefill_junk()
        assert store.occupancy() == 1.0
        assert store.is_valid(0, 0)
        assert store.tag_at(0, 0) == JUNK_TAG
        assert not store.is_dirty(0, 0)

    def test_junk_never_matches_real_tags(self, store):
        store.prefill_junk()
        for tag in (0, 1, 2**40):
            assert store.find_way(7, tag) is None

    def test_install_over_junk(self, store):
        store.prefill_junk()
        store.install(7, 1, 99)
        assert store.find_way(7, 99) == 1
        assert store.valid_lines == store.geometry.num_lines

    def test_prefill_at_construction_matches_prefill_junk(self, store):
        built = TagStore(store.geometry, dense=store.dense, prefill=True)
        store.prefill_junk()
        assert built.valid_lines == store.valid_lines
        assert built._tags == store._tags
        assert built._dirty == store._dirty
        assert type(built._sparse) is type(store._sparse)
        for set_index in (0, 9):
            for way in (0, 1):
                assert built.tag_at(set_index, way) == store.tag_at(set_index, way)


class TestEvictSlot:
    """evict_slot == tag_at + is_dirty + invalidate, in one store call."""

    def test_evicts_clean_line(self, store):
        store.install(3, 1, 42)
        assert store.evict_slot(3, 1) == (42, False)
        assert not store.is_valid(3, 1)
        assert store.valid_lines == 0

    def test_evicts_dirty_line_and_clears_dirty_bit(self, store):
        store.install(5, 0, 7)
        store.set_dirty(5, 0)
        assert store.evict_slot(5, 0) == (7, True)
        # A later occupant of the slot must start clean.
        store.install(5, 0, 8)
        assert not store.is_dirty(5, 0)

    def test_invalid_slot_reports_sentinel(self, store):
        assert store.evict_slot(2, 1) == (-1, False)
        assert store.valid_lines == 0

    def test_double_evict_is_idempotent(self, store):
        store.install(4, 1, 11)
        store.evict_slot(4, 1)
        assert store.evict_slot(4, 1) == (-1, False)
        assert store.valid_lines == 0

    def test_matches_separate_calls(self, store):
        """Cross-check against the three-call sequence it replaces."""
        reference = TagStore(store.geometry, dense=True)
        for set_index, way, tag, dirty in [
            (0, 0, 5, True), (0, 1, 6, False), (9, 0, 7, True),
        ]:
            for s in (store, reference):
                s.install(set_index, way, tag)
                if dirty:
                    s.set_dirty(set_index, way)
        for set_index, way in [(0, 0), (0, 1), (9, 0), (9, 1)]:
            expected = (reference.tag_at(set_index, way),
                        reference.is_dirty(set_index, way))
            if expected[0] != -1:
                reference.invalidate(set_index, way)
            assert store.evict_slot(set_index, way) == expected
            assert store.valid_lines == reference.valid_lines
