"""Tests for the interval timing model and the CPU performance model."""

import pytest

from repro.errors import SimulationError
from repro.params.system import CoreConfig, scaled_system
from repro.sim.cpu import CorePerformance, weighted_speedup
from repro.sim.stats import CacheStats
from repro.sim.timing_model import IntervalTimingModel


def stats_for(reads, hit_rate, transfers_per_read=1.0, hit_extras=0,
              writebacks=0):
    misses = int(reads * (1.0 - hit_rate))
    stats = CacheStats(
        demand_reads=reads,
        hits=reads - misses,
        misses=misses,
        first_probes=reads,
        hit_extra_probes=hit_extras,
        cache_read_transfers=int(reads * transfers_per_read),
        cache_write_transfers=misses,
        nvm_reads=misses,
        nvm_writes=writebacks,
        installs=misses,
    )
    return stats


@pytest.fixture
def model():
    return IntervalTimingModel(scaled_system(ways=1))


class TestBasics:
    def test_runtime_positive_and_converged(self, model):
        stats = stats_for(10_000, 0.75)
        breakdown = model.evaluate(stats, instructions=400_000)
        assert breakdown.runtime_ns > breakdown.base_ns > 0
        assert 0.0 <= breakdown.dram_utilization <= 0.98
        assert 0.0 <= breakdown.nvm_utilization <= 0.98

    def test_no_reads_is_base_time(self, model):
        breakdown = model.evaluate(CacheStats(), instructions=1000)
        assert breakdown.runtime_ns == pytest.approx(breakdown.base_ns)
        assert breakdown.stall_ns == 0.0

    def test_rejects_bad_inputs(self, model):
        with pytest.raises(SimulationError):
            model.evaluate(CacheStats(), instructions=0)
        with pytest.raises(SimulationError):
            model.evaluate(CacheStats(), instructions=100, num_cores=0)


class TestSensitivities:
    def test_higher_hit_rate_is_faster(self, model):
        slow = model.evaluate(stats_for(10_000, 0.60), instructions=400_000)
        fast = model.evaluate(stats_for(10_000, 0.90), instructions=400_000)
        assert fast.runtime_ns < slow.runtime_ns

    def test_more_transfers_is_slower(self, model):
        lean = model.evaluate(stats_for(10_000, 0.75, transfers_per_read=1.0),
                              instructions=400_000)
        fat = model.evaluate(stats_for(10_000, 0.75, transfers_per_read=4.0),
                             instructions=400_000)
        assert fat.runtime_ns > lean.runtime_ns

    def test_hit_extra_probes_add_latency(self, model):
        clean = model.evaluate(stats_for(10_000, 0.75), instructions=400_000)
        probed = model.evaluate(stats_for(10_000, 0.75, hit_extras=5_000),
                                instructions=400_000)
        assert probed.runtime_ns > clean.runtime_ns

    def test_more_cores_saturate_buses(self, model):
        stats = stats_for(10_000, 0.60, transfers_per_read=2.0, writebacks=4000)
        one = model.evaluate(stats, instructions=400_000, num_cores=1)
        sixteen = model.evaluate(stats, instructions=400_000, num_cores=16)
        assert sixteen.nvm_utilization > one.nvm_utilization
        assert sixteen.runtime_ns > one.runtime_ns

    def test_fixed_point_is_consistent(self, model):
        # At the solution, recomputing runtime from the reported
        # components reproduces the runtime.
        stats = stats_for(10_000, 0.70, transfers_per_read=1.5)
        breakdown = model.evaluate(stats, instructions=400_000)
        assert breakdown.runtime_ns == pytest.approx(
            breakdown.base_ns + breakdown.stall_ns, rel=1e-4
        )

    def test_cpi_helper(self, model):
        stats = stats_for(1000, 0.75)
        breakdown = model.evaluate(stats, instructions=40_000)
        cpi = breakdown.runtime_ns * CoreConfig().frequency_ghz / 40_000
        assert cpi > 0.7  # cannot beat the base CPI


class TestCpuModel:
    def test_core_performance_metrics(self):
        perf = CorePerformance(instructions=3000.0, runtime_ns=1000.0)
        assert perf.ips == 3.0

    def test_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            CorePerformance(0.0, 10.0)
        with pytest.raises(SimulationError):
            CorePerformance(10.0, 0.0)

    def test_weighted_speedup_rate_mode(self):
        base = [CorePerformance(1000.0, 200.0)] * 16
        faster = [CorePerformance(1000.0, 100.0)] * 16
        assert weighted_speedup(faster, base) == pytest.approx(2.0)

    def test_weighted_speedup_heterogeneous(self):
        base = [CorePerformance(100.0, 100.0), CorePerformance(100.0, 100.0)]
        mixed = [CorePerformance(100.0, 50.0), CorePerformance(100.0, 200.0)]
        assert weighted_speedup(mixed, base) == pytest.approx((2.0 + 0.5) / 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            weighted_speedup([CorePerformance(1.0, 1.0)], [])
