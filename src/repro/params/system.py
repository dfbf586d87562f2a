"""Whole-system configuration (paper Table III) with scaling support.

The paper evaluates a 16-core system with a 4GB DRAM cache in front of
128GB of NVM. Simulating gigascale structures access-by-access in Python
is feasible functionally but slow, so experiments run a *scaled* system:
cache capacity and workload footprints are shrunk by the same factor,
preserving the footprint/capacity ratio and the sets-per-way geometry
that drive hit-rate and way-prediction behaviour. ``scale=1.0``
reproduces the paper's geometry exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.params.timing import BusConfig, DramTiming, NvmTiming, hbm_bus, nvm_bus
from repro.utils.bitops import is_pow2

LINE_SIZE = 64
TAG_ECC_BYTES = 8  # tags live in unused ECC bits -> 72B streamed per line
TRANSFER_BYTES = LINE_SIZE + TAG_ECC_BYTES
PAGE_SIZE = 4096
REGION_SIZE = 4096  # GWS region granularity

#: The seed and system scale every experiment grid uses unless told
#: otherwise (``repro.exec.jobs`` names its other grid knobs beside
#: them). 1/128 turns the 4GB cache into 32MB.
GRID_SEED = 7
GRID_SCALE = 1.0 / 128.0


@dataclass(frozen=True)
class CoreConfig:
    """Processor core parameters (Table III: 16 cores, 3GHz, 2-wide OoO)."""

    num_cores: int = 16
    frequency_ghz: float = 3.0
    issue_width: int = 2
    base_cpi: float = 0.7  # CPI with a perfect memory system
    mlp: float = 3.0  # average overlap of outstanding L3 misses

    def __post_init__(self):
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")
        if self.frequency_ghz <= 0:
            raise ConfigError("frequency must be positive")
        if self.base_cpi <= 0:
            raise ConfigError("base_cpi must be positive")
        if self.mlp < 1.0:
            raise ConfigError("mlp must be >= 1 (misses cannot anti-overlap)")


@dataclass(frozen=True)
class CacheGeometryConfig:
    """Geometry of one cache level."""

    capacity_bytes: int
    ways: int
    line_size: int = LINE_SIZE

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise ConfigError("capacity must be positive")
        if self.ways <= 0:
            raise ConfigError("ways must be positive")
        if not is_pow2(self.line_size):
            raise ConfigError("line size must be a power of two")
        lines = self.capacity_bytes // self.line_size
        if lines * self.line_size != self.capacity_bytes:
            raise ConfigError("capacity must be a multiple of the line size")
        if lines % self.ways != 0:
            raise ConfigError("line count must be divisible by ways")
        if not is_pow2(lines // self.ways):
            raise ConfigError("number of sets must be a power of two")

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class SystemConfig:
    """Complete system description used by simulators and timing models."""

    cores: CoreConfig = field(default_factory=CoreConfig)
    llc: CacheGeometryConfig = field(
        default_factory=lambda: CacheGeometryConfig(8 * 1024 * 1024, 16)
    )
    dram_cache: CacheGeometryConfig = field(
        default_factory=lambda: CacheGeometryConfig(4 * 1024 * 1024 * 1024, 1)
    )
    dram_timing: DramTiming = field(default_factory=DramTiming)
    dram_bus: BusConfig = field(default_factory=hbm_bus)
    nvm_timing: NvmTiming = field(default_factory=NvmTiming)
    nvm_bus: BusConfig = field(default_factory=nvm_bus)
    nvm_capacity_bytes: int = 128 * 1024 * 1024 * 1024
    scale: float = 1.0  # bookkeeping only; geometry is already scaled

    def __post_init__(self):
        if self.nvm_capacity_bytes < self.dram_cache.capacity_bytes:
            raise ConfigError("main memory must be at least as large as the cache")

    def with_dram_cache(self, capacity_bytes: int, ways: int) -> "SystemConfig":
        """Return a copy with a different DRAM-cache geometry."""
        return replace(
            self,
            dram_cache=CacheGeometryConfig(capacity_bytes, ways),
        )


def paper_system(ways: int = 1) -> SystemConfig:
    """The unscaled Table III system (4GB cache, 128GB NVM)."""
    return SystemConfig().with_dram_cache(4 * 1024 * 1024 * 1024, ways)


def scaled_system(ways: int = 1, scale: float = GRID_SCALE) -> SystemConfig:
    """A geometry-scaled system for tractable simulation.

    The default scale, :data:`GRID_SCALE`, turns the 4GB cache into
    32MB. Workload footprints are scaled by the same factor in
    :mod:`repro.workloads.spec`, preserving footprint/capacity ratios.
    """
    if scale <= 0 or scale > 1:
        raise ConfigError(f"scale must be in (0, 1], got {scale}")
    cache_bytes = int(4 * 1024 * 1024 * 1024 * scale)
    nvm_bytes = int(128 * 1024 * 1024 * 1024 * scale)
    base = SystemConfig(
        dram_cache=CacheGeometryConfig(cache_bytes, ways),
        nvm_capacity_bytes=max(nvm_bytes, cache_bytes),
        scale=scale,
    )
    return base
