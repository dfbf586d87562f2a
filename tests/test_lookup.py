"""Unit tests for lookup flows (Table I cost identities)."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.lookup import (
    ParallelLookup,
    SerialLookup,
    WayPredictedLookup,
)
from repro.cache.storage import TagStore
from repro.core.prediction import StaticPreferredPredictor
from repro.core.steering import preferred_way
from repro.errors import PolicyError


@pytest.fixture
def geom():
    return CacheGeometry(16 * 1024, 4)


@pytest.fixture
def store(geom):
    s = TagStore(geom)
    s.install(5, 2, 77)  # one line resident in way 2 of set 5
    return s


ALL_WAYS = (0, 1, 2, 3)


class TestParallel:
    def test_hit_costs(self, store):
        result = ParallelLookup().lookup(5, 77, 0, store, ALL_WAYS)
        assert result.hit and result.way == 2
        assert result.serialized_accesses == 1
        assert result.transfers == 4

    def test_miss_costs(self, store):
        result = ParallelLookup().lookup(5, 99, 0, store, ALL_WAYS)
        assert not result.hit
        assert result.serialized_accesses == 1
        assert result.transfers == 4

    def test_respects_candidates(self, store):
        result = ParallelLookup().lookup(5, 77, 0, store, (0, 1))
        assert not result.hit
        assert result.transfers == 2


class TestSerial:
    def test_hit_at_position_k(self, store):
        result = SerialLookup().lookup(5, 77, 0, store, ALL_WAYS)
        assert result.hit and result.way == 2
        assert result.serialized_accesses == 3  # probed ways 0,1,2
        assert result.transfers == 3

    def test_miss_probes_all(self, store):
        result = SerialLookup().lookup(5, 99, 0, store, ALL_WAYS)
        assert not result.hit
        assert result.serialized_accesses == 4
        assert result.transfers == 4


class TestWayPredicted:
    def test_correct_prediction_single_access(self, geom, store):
        predictor = StaticPreferredPredictor(geom)
        tag = 77
        way = preferred_way(tag, 4)
        store.install(9, way, tag)
        result = WayPredictedLookup().lookup(9, tag, 0, store, ALL_WAYS, predictor)
        assert result.hit and result.way == way
        assert result.serialized_accesses == 1
        assert result.transfers == 1
        assert result.prediction_correct

    def test_mispredict_then_hit(self, geom, store):
        predictor = StaticPreferredPredictor(geom)
        tag = 77
        wrong_way = (preferred_way(tag, 4) + 1) % 4
        store.install(9, wrong_way, tag)
        result = WayPredictedLookup().lookup(9, tag, 0, store, ALL_WAYS, predictor)
        assert result.hit and result.way == wrong_way
        assert result.serialized_accesses >= 2
        assert not result.prediction_correct

    def test_miss_confirmation_probes_all_candidates(self, geom, store):
        predictor = StaticPreferredPredictor(geom)
        result = WayPredictedLookup().lookup(9, 1234, 0, store, ALL_WAYS, predictor)
        assert not result.hit
        assert result.serialized_accesses == 4
        assert result.transfers == 4

    def test_sws_candidates_limit_miss_cost(self, geom, store):
        predictor = StaticPreferredPredictor(geom)
        tag = 1234
        pref = preferred_way(tag, 4)
        alt = (pref + 1) % 4
        result = WayPredictedLookup().lookup(9, tag, 0, store, (pref, alt), predictor)
        assert not result.hit
        assert result.serialized_accesses == 2
        assert result.transfers == 2

    def test_prediction_outside_candidates_is_coerced(self, geom, store):
        predictor = StaticPreferredPredictor(geom)
        tag = 77
        pref = preferred_way(tag, 4)
        others = tuple(w for w in ALL_WAYS if w != pref)[:2]
        store.install(9, others[0], tag)
        result = WayPredictedLookup().lookup(9, tag, 0, store, others, predictor)
        assert result.hit
        assert result.predicted_way in others

    def test_requires_predictor(self, store):
        with pytest.raises(PolicyError):
            WayPredictedLookup().lookup(5, 77, 0, store, ALL_WAYS, None)
