"""Tests for the ACCORD factory and end-to-end policy behaviour."""

import pytest

from repro.cache.ca_cache import ColumnAssociativeCache
from repro.cache.dram_cache import DramCache
from repro.cache.geometry import CacheGeometry
from repro.core.accord import AccordDesign, make_accord, make_design
from repro.core.gws import GangedWayPredictor, GangedWaySteering
from repro.core.sws import SkewedWaySteering
from repro.errors import PolicyError


@pytest.fixture
def geom():
    return CacheGeometry(64 * 1024, 2)


class TestFactory:
    @pytest.mark.parametrize("kind,ways", [
        ("direct", 1), ("parallel", 2), ("serial", 2), ("ideal", 4),
        ("unbiased", 2), ("pws", 2), ("gws", 2), ("accord", 2),
        ("sws", 8), ("mru", 2), ("partial_tag", 2), ("perfect", 2),
    ])
    def test_all_kinds_build_and_run(self, kind, ways):
        design = AccordDesign(kind=kind, ways=ways)
        geometry = CacheGeometry(64 * 1024, ways)
        cache = make_design(design, geometry, seed=3)
        for i in range(200):
            cache.read(i * 64 % (16 * 1024))
        assert cache.stats.demand_reads == 200
        assert cache.stats.hits + cache.stats.misses == 200

    def test_ca_kind(self):
        cache = make_design(AccordDesign(kind="ca", ways=1), CacheGeometry(64 * 1024, 1))
        assert isinstance(cache, ColumnAssociativeCache)

    def test_unknown_kind_rejected(self, geom):
        with pytest.raises(PolicyError):
            make_design(AccordDesign(kind="bogus", ways=2), geom)

    def test_direct_requires_one_way(self, geom):
        with pytest.raises(PolicyError):
            make_design(AccordDesign(kind="direct", ways=2), geom)

    def test_geometry_reshaped_to_design(self):
        design = AccordDesign(kind="accord", ways=2)
        cache = make_design(design, CacheGeometry(64 * 1024, 1))
        assert cache.geometry.ways == 2

    def test_display_names(self):
        assert AccordDesign(kind="sws", ways=8).display_name == "ACCORD SWS(8,2)"
        assert AccordDesign(kind="accord", ways=2).display_name == "ACCORD 2-way"
        assert AccordDesign(kind="pws", ways=2, label="X").display_name == "X"


class TestMakeAccord:
    def test_wiring(self, geom):
        cache = make_accord(geom)
        assert isinstance(cache, DramCache)
        assert isinstance(cache.steering, GangedWaySteering)
        assert isinstance(cache.predictor, GangedWayPredictor)
        assert cache.storage_overhead_bits() == 2 * 64 * 20  # 320 bytes

    def test_sws_wiring(self):
        geometry = CacheGeometry(256 * 1024, 8)
        cache = make_accord(geometry, use_sws=True, hashes=2)
        assert isinstance(cache.steering.fallback, SkewedWaySteering)
        # Miss confirmation is capped at 2 candidate ways.
        assert len(cache.steering.candidate_ways(0, 1234)) == 2


class TestAccordBehaviour:
    def test_spatial_stream_predicts_nearly_perfectly(self, geom):
        """A region-streaming workload is GWS's best case."""
        cache = make_accord(geom, rng=None)
        # 12 pages x 64 lines = 768 lines fit the 1024-line cache.
        for page in range(12):
            for line in range(64):
                cache.read(page * 4096 + line * 64)
        # Second pass over the same pages: hits with high accuracy.
        cache.stats.__init__()
        for page in range(8):
            for line in range(64):
                cache.read(page * 4096 + line * 64)
        assert cache.stats.prediction_accuracy > 0.95

    def test_conflict_pair_coresides_eventually(self):
        """The (a,b)^N kernel: ACCORD keeps both lines resident."""
        geometry = CacheGeometry(8 * 1024, 2)
        cache = make_accord(geometry)
        a, b = 0, 8 * 1024  # same set in any organization of this capacity
        for _ in range(256):
            cache.read(a)
            cache.read(b)
        assert cache.stats.hit_rate > 0.7  # direct-mapped would be 0

    def test_ideal_lookup_costs(self):
        geometry = CacheGeometry(64 * 1024, 8)
        cache = make_design(AccordDesign(kind="ideal", ways=8), geometry)
        for i in range(100):
            cache.read(i * 64)
        stats = cache.stats
        assert stats.cache_read_transfers == stats.demand_reads
        assert stats.hit_extra_probes == stats.miss_extra_probes == 0
