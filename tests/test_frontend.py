"""Tests for the CPU front-end and the L3-filtering effect."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.errors import SimulationError, WorkloadError
from repro.sim.frontend import (
    FrontendSpec,
    RawAccessGenerator,
    mru_accuracy_at_level,
    run_frontend,
)


class TestRawGenerator:
    def test_deterministic(self):
        spec = FrontendSpec()
        a = list(RawAccessGenerator(spec, seed=3).accesses(2000))
        b = list(RawAccessGenerator(spec, seed=3).accesses(2000))
        assert a == b

    def test_exact_count(self):
        stream = list(RawAccessGenerator(FrontendSpec(), seed=1).accesses(777))
        assert len(stream) == 777

    def test_word_level_reuse(self):
        # Consecutive accesses frequently share a line (L1 locality).
        stream = list(RawAccessGenerator(FrontendSpec(), seed=1).accesses(4000))
        same_line = sum(
            1
            for i in range(1, len(stream))
            if stream[i][0] // 64 == stream[i - 1][0] // 64
        )
        assert same_line / len(stream) > 0.5

    def test_write_fraction(self):
        stream = list(RawAccessGenerator(FrontendSpec(), seed=1).accesses(8000))
        writes = sum(w for _, w in stream)
        assert 0.18 < writes / 8000 < 0.32

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            FrontendSpec(hot_objects=100, total_objects=50)
        with pytest.raises(WorkloadError):
            FrontendSpec(burst_lines=0)
        with pytest.raises(WorkloadError):
            FrontendSpec(words_per_line=0)

    def test_count_validation(self):
        with pytest.raises(WorkloadError):
            list(RawAccessGenerator(FrontendSpec()).accesses(0))


class TestRunFrontend:
    def _result(self, raw=40_000):
        return run_frontend(
            FrontendSpec(),
            raw,
            seed=5,
            l1=CacheGeometry(16 * 1024, 8),
            l2=CacheGeometry(128 * 1024, 8),
            l3=CacheGeometry(1024 * 1024, 16),
        )

    def test_filtering_happens(self):
        result = self._result()
        assert result.l1_hit_rate > 0.6  # word-level reuse absorbed
        assert 0.0 < result.filter_rate < 1.0
        assert result.dram_cache_reads < result.raw_accesses

    def test_trace_is_line_granular_misses(self):
        result = self._result()
        trace = result.dram_cache_trace
        assert len(trace) > 0
        assert trace.instructions_per_access > 3.0  # rescaled upward

    def test_filtered_stream_loses_line_reuse(self):
        """The defining property: consecutive same-line accesses are gone."""
        result = self._result()
        addrs = result.dram_cache_trace.addrs
        same_line = sum(
            1
            for i in range(1, len(addrs))
            if addrs[i] // 64 == addrs[i - 1] // 64
        )
        assert same_line / max(len(addrs), 1) < 0.05

    def test_validation(self):
        with pytest.raises(SimulationError):
            run_frontend(FrontendSpec(), 0)


class TestMruFilteringEffect:
    def test_mru_worse_after_filtering(self):
        """The paper's Section II-D claim, end to end."""
        spec = FrontendSpec()
        raw = 120_000
        result = run_frontend(
            spec, raw, seed=7,
            l1=CacheGeometry(16 * 1024, 8),
            l2=CacheGeometry(128 * 1024, 8),
            l3=CacheGeometry(1024 * 1024, 16),
        )
        geometry = CacheGeometry(8 * 1024 * 1024, 2)
        raw_accuracy = mru_accuracy_at_level(
            RawAccessGenerator(spec, seed=7).accesses(raw), geometry
        )
        filtered_accuracy = mru_accuracy_at_level(
            zip(result.dram_cache_trace.addrs, result.dram_cache_trace.writes),
            geometry,
        )
        assert raw_accuracy > 0.95
        assert filtered_accuracy < raw_accuracy - 0.05


class TestMruAccuracyEngine:
    def test_matches_per_address_loop(self):
        """The engine-driven measurement equals reading one address at a time."""
        from repro.cache.dram_cache import DramCache
        from repro.cache.lookup import WayPredictedLookup
        from repro.cache.replacement import RandomReplacement
        from repro.core.prediction import MruPredictor
        from repro.core.steering import UnbiasedSteering
        from repro.utils.rng import XorShift64

        spec = FrontendSpec()
        raw = 120_000
        result = run_frontend(
            spec, raw, seed=7,
            l1=CacheGeometry(16 * 1024, 8),
            l2=CacheGeometry(128 * 1024, 8),
            l3=CacheGeometry(1024 * 1024, 16),
        )
        geometry = CacheGeometry(8 * 1024 * 1024, 2)
        streams = (
            lambda: RawAccessGenerator(spec, seed=7).accesses(raw),
            lambda: zip(
                result.dram_cache_trace.addrs, result.dram_cache_trace.writes
            ),
        )
        for stream in streams:
            cache = DramCache(
                geometry,
                lookup=WayPredictedLookup(),
                steering=UnbiasedSteering(geometry),
                predictor=MruPredictor(geometry),
                replacement=RandomReplacement(XorShift64(1)),
            )
            for addr, is_write in stream():
                if not is_write:
                    cache.read(addr)
            expected = cache.stats.prediction_accuracy
            assert mru_accuracy_at_level(stream(), geometry) == expected
