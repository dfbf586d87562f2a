"""Unit tests for the DRAM cache orchestration (costs, DCP, eviction)."""

import pytest

from repro.cache.dram_cache import DramCache
from repro.cache.geometry import CacheGeometry
from repro.cache.lookup import ParallelLookup, SerialLookup, WayPredictedLookup
from repro.cache.replacement import RandomReplacement
from repro.core.prediction import StaticPreferredPredictor
from repro.core.steering import DirectMappedSteering, UnbiasedSteering, preferred_way
from repro.errors import PolicyError
from repro.utils.rng import XorShift64


def make_cache(ways=2, lookup=None, prefill=False, capacity=8 * 1024):
    geometry = CacheGeometry(capacity, ways)
    predictor = StaticPreferredPredictor(geometry)
    return DramCache(
        geometry,
        lookup=lookup or WayPredictedLookup(),
        steering=UnbiasedSteering(geometry),
        predictor=predictor,
        replacement=RandomReplacement(XorShift64(3)),
        prefill=prefill,
    )


class TestReadPath:
    def test_cold_miss_fills(self):
        cache = make_cache()
        outcome = cache.read(0x1000)
        assert not outcome.hit
        assert outcome.nvm_read
        assert cache.store.find_way(*cache.geometry.split(0x1000)) is not None
        assert cache.stats.misses == 1
        assert cache.stats.nvm_reads == 1
        assert cache.stats.installs == 1
        assert cache.stats.cache_write_transfers == 1  # the fill

    def test_second_access_hits(self):
        cache = make_cache()
        cache.read(0x1000)
        outcome = cache.read(0x1000)
        assert outcome.hit
        assert cache.stats.hits == 1

    def test_hit_in_installed_way(self):
        cache = make_cache()
        first = cache.read(0x2000)
        second = cache.read(0x2000)
        assert second.way == first.way

    def test_line_granularity(self):
        cache = make_cache()
        cache.read(0x1000)
        assert cache.read(0x1004).hit  # same 64B line
        assert not cache.read(0x1040).hit  # next line

    def test_prediction_stats_only_on_hits(self):
        cache = make_cache()
        cache.read(0x1000)  # miss
        assert cache.stats.predicted_hits == 0
        cache.read(0x1000)  # hit
        assert cache.stats.predicted_hits == 1

    def test_steering_candidate_enforcement(self):
        geometry = CacheGeometry(8 * 1024, 2)

        class RogueSteering(UnbiasedSteering):
            def choose_install_way(self, set_index, tag, addr, store, replacement):
                return 1  # fine for unrestricted candidates

            def candidate_ways(self, set_index, tag):
                return (0,)  # ...but claims only way 0 is legal

        cache = DramCache(
            geometry,
            lookup=SerialLookup(),
            steering=RogueSteering(geometry),
            predictor=None,
        )
        with pytest.raises(PolicyError):
            cache.read(0x1000)


class TestEviction:
    def test_conflict_evicts(self):
        cache = make_cache(ways=1)
        span = cache.geometry.num_sets * cache.geometry.line_size
        cache.read(0x0)
        cache.read(span)  # same set, different tag
        assert cache.store.find_way(*cache.geometry.split(0x0)) is None
        assert cache.stats.evictions == 1
        assert cache.stats.nvm_writes == 0  # clean victim

    def test_dirty_eviction_writes_nvm(self):
        cache = make_cache(ways=1)
        span = cache.geometry.num_sets * cache.geometry.line_size
        cache.read(0x0)
        cache.writeback(0x0)  # make it dirty
        cache.read(span)  # evicts the dirty line
        assert cache.stats.dirty_evictions == 1
        assert cache.stats.nvm_writes == 1


class TestWriteback:
    def test_resident_writeback_direct(self):
        cache = make_cache()
        cache.read(0x3000)
        assert cache.writeback(0x3000)
        assert cache.stats.writeback_direct == 1
        assert cache.stats.writeback_probe_accesses == 0  # DCP knows the way

    def test_absent_writeback_bypasses_to_nvm(self):
        cache = make_cache()
        assert not cache.writeback(0x4000)
        assert cache.stats.writeback_bypass == 1
        assert cache.stats.nvm_writes == 1

    def test_without_dcp_probes(self):
        geometry = CacheGeometry(8 * 1024, 2)
        cache = DramCache(
            geometry,
            lookup=SerialLookup(),
            steering=UnbiasedSteering(geometry),
            predictor=None,
            dcp=None,
        )
        cache.read(0x3000)
        cache.writeback(0x3000)
        assert cache.stats.writeback_probe_accesses >= 1

    def test_dcp_tracks_eviction(self):
        cache = make_cache(ways=1)
        span = cache.geometry.num_sets * cache.geometry.line_size
        cache.read(0x0)
        cache.read(span)
        # 0x0 was evicted; its writeback must bypass.
        assert not cache.writeback(0x0)


class TestCostIdentities:
    """The simulator's counters must satisfy Table I's cost formulas."""

    def test_parallel_transfers(self):
        cache = make_cache(ways=4, lookup=ParallelLookup(), capacity=16 * 1024)
        cache.predictor = None
        for i in range(50):
            cache.read(i * 64)
        stats = cache.stats
        assert stats.cache_read_transfers == 4 * stats.demand_reads
        assert stats.first_probes == stats.demand_reads
        assert stats.hit_extra_probes == stats.miss_extra_probes == 0

    def test_direct_mapped_single_transfer(self):
        geometry = CacheGeometry(8 * 1024, 1)
        cache = DramCache(
            geometry,
            lookup=SerialLookup(),
            steering=DirectMappedSteering(geometry),
            predictor=None,
        )
        for i in range(50):
            cache.read(i * 64)
        assert cache.stats.cache_read_transfers == cache.stats.demand_reads

    def test_way_predicted_miss_probes_all_ways(self):
        cache = make_cache(ways=4, capacity=16 * 1024)
        cache.read(0x0)  # cold miss
        assert cache.stats.miss_extra_probes == 3
        assert cache.stats.cache_read_transfers == 4

    def test_probes_per_read_bounds(self):
        cache = make_cache(ways=2)
        for i in range(200):
            cache.read((i % 30) * 64)
        stats = cache.stats
        probes = stats.first_probes + stats.hit_extra_probes + stats.miss_extra_probes
        assert stats.demand_reads <= probes <= 2 * stats.demand_reads


class TestStorageOverhead:
    def test_stateless_stack_is_free(self):
        cache = make_cache()
        assert cache.storage_overhead_bits() == 0


class TestReferenceCounting:
    """A finished cache is freed by reference counting alone.

    The cache and its access path must not reference each other: a
    cycle would keep every finished run's cache (tag store, policy
    state) alive until the cyclic collector happens to run, so peak
    memory would depend on collector timing.
    """

    @staticmethod
    def _freed_without_gc(build_and_drive):
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(build_and_drive())
            return ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("engine", ["auto", "loop"])
    @pytest.mark.parametrize("spec", [
        "direct", "unbiased:2", "pws:2", "accord:2", "sws:8:2", "dueling:2",
        "mru:2", "ca",
    ])
    def test_driven_cache_freed_without_the_cycle_collector(
        self, spec, engine
    ):
        from repro.exec.jobs import parse_design_spec
        from repro.params.system import scaled_system
        from repro.sim.runner import TraceFactory
        from repro.sim.system import Simulator

        design = parse_design_spec(spec)
        config = scaled_system(ways=design.ways)
        trace = TraceFactory(config, num_accesses=2000).trace_for("soplex")

        def build_and_drive():
            simulator = Simulator(config, design)
            simulator.run(trace, epoch=300, engine=engine)
            return simulator.cache

        assert self._freed_without_gc(build_and_drive)

    def test_observed_cache_freed_without_the_cycle_collector(self):
        from repro.cache.events import StatsObserver

        def build_and_drive():
            cache = make_cache(prefill=True)
            cache.add_observer(StatsObserver())
            for addr in range(0, 64 * 4096, 64 * 7):
                cache.read(addr)
                cache.writeback(addr)
            return cache

        assert self._freed_without_gc(build_and_drive)
