"""Tests for the configuration layer (Table III parameters, scaling)."""

import pytest

from repro.errors import ConfigError
from repro.params.system import (
    CacheGeometryConfig,
    CoreConfig,
    SystemConfig,
    paper_system,
    scaled_system,
)
from repro.params.timing import BusConfig, DramTiming, NvmTiming, hbm_bus, nvm_bus


class TestCoreConfig:
    def test_paper_defaults(self):
        config = CoreConfig()
        assert config.num_cores == 16
        assert config.frequency_ghz == 3.0
        assert config.issue_width == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            CoreConfig(num_cores=0)
        with pytest.raises(ConfigError):
            CoreConfig(mlp=0.5)
        with pytest.raises(ConfigError):
            CoreConfig(base_cpi=0.0)


class TestCacheGeometryConfig:
    def test_derived(self):
        config = CacheGeometryConfig(8 * 1024 * 1024, 16)
        assert config.num_lines == 128 * 1024
        assert config.num_sets == 8 * 1024

    def test_validation(self):
        with pytest.raises(ConfigError):
            CacheGeometryConfig(0, 1)
        with pytest.raises(ConfigError):
            CacheGeometryConfig(8 * 1024, 3)  # sets not a power of two


class TestTimings:
    def test_dram_latency_ordering(self):
        timing = DramTiming()
        assert timing.row_hit_ns < timing.row_empty_ns
        assert timing.row_empty_ns == timing.t_rcd + timing.t_cas

    def test_nvm_slower_than_dram(self):
        dram = DramTiming()
        nvm = NvmTiming()
        # Paper: NVM read 2-4x, write 4x DRAM latency.
        assert nvm.read_ns >= 2 * dram.row_empty_ns
        assert nvm.write_ns >= nvm.read_ns

    def test_validation(self):
        with pytest.raises(ConfigError):
            DramTiming(t_cas=0)
        with pytest.raises(ConfigError):
            NvmTiming(read_ns=-1)


class TestBusConfig:
    def test_paper_bandwidths(self):
        assert hbm_bus().aggregate_bandwidth_gbps == pytest.approx(128.0)
        assert nvm_bus().aggregate_bandwidth_gbps == pytest.approx(32.0)

    def test_sustainable_below_peak(self):
        assert hbm_bus().sustainable_bandwidth_gbps < hbm_bus().aggregate_bandwidth_gbps

    def test_transfer_time(self):
        bus = hbm_bus()  # 16 B/ns per channel
        assert bus.transfer_ns(72) == pytest.approx(72 / 32.0 * 2.0)

    def test_validation(self):
        with pytest.raises(Exception):
            BusConfig(channels=0, bus_bits=64, frequency_mhz=100)
        with pytest.raises(Exception):
            BusConfig(channels=1, bus_bits=63, frequency_mhz=100)
        with pytest.raises(Exception):
            BusConfig(channels=1, bus_bits=64, frequency_mhz=100, efficiency=1.5)


class TestSystemConfig:
    def test_paper_system(self):
        config = paper_system(ways=2)
        assert config.dram_cache.capacity_bytes == 4 * 1024 * 1024 * 1024
        assert config.dram_cache.ways == 2
        assert config.nvm_capacity_bytes == 128 * 1024 * 1024 * 1024
        assert config.dram_bus.aggregate_bandwidth_gbps == pytest.approx(128.0)
        assert config.nvm_bus.aggregate_bandwidth_gbps == pytest.approx(32.0)

    def test_scaled_system_preserves_ratios(self):
        config = scaled_system(ways=2, scale=1.0 / 128.0)
        assert config.dram_cache.capacity_bytes == 32 * 1024 * 1024
        ratio = config.nvm_capacity_bytes / config.dram_cache.capacity_bytes
        assert ratio == pytest.approx(32.0)  # 128GB / 4GB

    def test_scale_validation(self):
        with pytest.raises(ConfigError):
            scaled_system(scale=0.0)
        with pytest.raises(ConfigError):
            scaled_system(scale=2.0)

    def test_with_dram_cache(self):
        config = scaled_system()
        resized = config.with_dram_cache(16 * 1024 * 1024, 4)
        assert resized.dram_cache.ways == 4
        assert config.dram_cache.ways == 1  # original untouched

    def test_cache_cannot_exceed_memory(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                dram_cache=CacheGeometryConfig(4 * 1024 * 1024 * 1024, 1),
                nvm_capacity_bytes=1024,
            )
