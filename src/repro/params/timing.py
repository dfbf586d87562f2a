"""Device timing and bus parameters.

Values follow Table III of the paper:

* DRAM cache: HBM-like, 8 channels x 128-bit bus at 500MHz (DDR 1GHz),
  128 GB/s aggregate, tCAS-tRCD-tRP-tRAS = 13-13-13-30 ns (typical HBM
  numbers for the listed configuration). The interval timing model
  charges a first probe activate + CAS and a follow-up probe CAS only,
  so tCAS and tRCD are the two it keeps.
* Main memory: PCM-like NVM, 2 channels x 64-bit at 1GHz (DDR 2GHz),
  32 GB/s aggregate, read latency 2-4x DRAM and write latency 4x DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class BusConfig:
    """A data bus shared by all banks of one device.

    ``efficiency`` is the sustainable fraction of peak bandwidth —
    real DRAM/NVM channels lose ~20-30% of raw bandwidth to row misses,
    refresh, read/write turnaround and command overheads, and the
    queueing model should saturate at the *sustainable* rate.
    """

    channels: int
    bus_bits: int
    frequency_mhz: float  # command clock; data rate is DDR (2x)
    efficiency: float = 0.80

    def __post_init__(self):
        if self.channels <= 0:
            raise ConfigError(f"channels must be positive, got {self.channels}")
        if self.bus_bits <= 0 or self.bus_bits % 8 != 0:
            raise ConfigError(f"bus_bits must be a positive multiple of 8, got {self.bus_bits}")
        if self.frequency_mhz <= 0:
            raise ConfigError(f"frequency must be positive, got {self.frequency_mhz}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError(f"efficiency must be in (0, 1], got {self.efficiency}")

    @property
    def bytes_per_cycle(self) -> float:
        """Bytes transferred per command-clock cycle per channel (DDR)."""
        return (self.bus_bits / 8.0) * 2.0

    @property
    def aggregate_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth in GB/s across all channels."""
        return self.channels * self.bytes_per_cycle * self.frequency_mhz * 1e6 / 1e9

    @property
    def sustainable_bandwidth_gbps(self) -> float:
        """Achievable bandwidth after protocol overheads."""
        return self.aggregate_bandwidth_gbps * self.efficiency

    def transfer_ns(self, num_bytes: int) -> float:
        """Time to stream ``num_bytes`` over one channel, in ns."""
        cycles = num_bytes / self.bytes_per_cycle
        return cycles * 1e3 / self.frequency_mhz


@dataclass(frozen=True)
class DramTiming:
    """DRAM array timing in nanoseconds."""

    t_cas: float = 13.0
    t_rcd: float = 13.0

    def __post_init__(self):
        for name in ("t_cas", "t_rcd"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def row_hit_ns(self) -> float:
        """Latency of a column access when the row is already open."""
        return self.t_cas

    @property
    def row_empty_ns(self) -> float:
        """Latency when the bank is precharged (activate + CAS)."""
        return self.t_rcd + self.t_cas


@dataclass(frozen=True)
class NvmTiming:
    """Non-volatile memory (PCM-like) timing in nanoseconds.

    Read latency is ~2-4x DRAM and write latency ~4x DRAM per the
    paper's configuration; defaults sit in the middle of that band.
    """

    read_ns: float = 180.0
    write_ns: float = 360.0

    def __post_init__(self):
        if self.read_ns <= 0 or self.write_ns <= 0:
            raise ConfigError("NVM latencies must be positive")


def hbm_bus() -> BusConfig:
    """The paper's stacked-DRAM bus: 8 channels, 128-bit, 500MHz DDR."""
    return BusConfig(channels=8, bus_bits=128, frequency_mhz=500.0)


def nvm_bus() -> BusConfig:
    """The paper's NVM bus: 2 channels, 64-bit, 1000MHz DDR."""
    return BusConfig(channels=2, bus_bits=64, frequency_mhz=1000.0)
