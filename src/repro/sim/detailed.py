"""Cycle-level detailed memory-system engine.

Replays a trace against the banked HBM device and NVM device models
(:mod:`repro.mem`), honouring row-buffer state, per-bank occupancy and
per-channel bus serialization. Orders of magnitude slower than the
interval model, so it is used for validation (tests assert that the
interval model's latency components bracket the detailed engine's
averages) and for row-buffer-sensitive micro-studies, not for the full
sweeps.

The engine processes requests in order with a simple MLP window: up to
``window`` requests may overlap; the completion time of a request is
the max of its issue time and its device response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.dram_cache import DramCache
from repro.errors import SimulationError
from repro.mem.bank import RefreshController
from repro.mem.dram import DramDevice
from repro.mem.nvm import NvmDevice
from repro.params.system import SystemConfig
from repro.sim.trace import Trace


@dataclass
class DetailedResult:
    """Aggregate timing from a detailed replay."""

    total_ns: float
    demand_reads: int
    total_read_latency_ns: float
    dram_row_hit_rate: float
    nvm_reads: int
    nvm_writes: int

    @property
    def avg_read_latency_ns(self) -> float:
        if not self.demand_reads:
            return 0.0
        return self.total_read_latency_ns / self.demand_reads


class DetailedEngine:
    """Cycle-level replay of a trace through a functional DRAM cache."""

    def __init__(self, config: SystemConfig, cache: DramCache, window: int = 8,
                 refresh: Optional[RefreshController] = None):
        if window < 1:
            raise SimulationError("MLP window must be >= 1")
        self.config = config
        self.cache = cache
        self.window = window
        self.dram = DramDevice(config.dram_timing, config.dram_bus)
        self.nvm = NvmDevice(config.nvm_timing, config.nvm_bus)
        self.refresh = refresh

    def replay(self, trace: Trace, issue_interval_ns: Optional[float] = None) -> DetailedResult:
        """Replay every request, tracking per-request completion times.

        ``issue_interval_ns`` is the core-side arrival spacing; by
        default it is derived from the trace's instruction density and
        the configured base CPI.
        """
        core = self.config.cores
        if issue_interval_ns is None:
            issue_interval_ns = (
                trace.instructions_per_access * core.base_cpi / core.frequency_ghz
            )
        now = 0.0
        # Completion times of the last `window` requests (MLP limiter).
        outstanding = []
        reads = 0
        total_read_latency = 0.0

        for addr, is_write in zip(*trace.scalar_columns()):
            now += issue_interval_ns
            if len(outstanding) >= self.window:
                oldest = outstanding.pop(0)
                now = max(now, oldest)
            done = self._service(addr, bool(is_write), now)
            outstanding.append(done)
            if not is_write:
                reads += 1
                total_read_latency += done - now

        finish = max([now] + outstanding)
        return DetailedResult(
            total_ns=finish,
            demand_reads=reads,
            total_read_latency_ns=total_read_latency,
            dram_row_hit_rate=self.dram.row_hit_rate(),
            nvm_reads=self.nvm.reads,
            nvm_writes=self.nvm.writes,
        )

    def _service(self, addr: int, is_write: bool, now: float) -> float:
        """Run one request through the functional cache + timing devices."""
        geometry = self.cache.geometry
        set_index = geometry.set_index(addr)
        if self.refresh is not None:
            for channel in self.dram.channels:
                self.refresh.apply(channel.banks, now)

        if is_write:
            absorbed = self.cache.writeback(addr)
            if absorbed:
                response = self.dram.access_set(set_index, 1, now)
                return response.ready_ns
            response = self.nvm.write_line(addr, now)
            return response.ready_ns

        outcome = self.cache.read(addr)
        # Serialized probes: each dependent access re-touches the set's
        # row (the first may miss the row, follow-ups hit it).
        ready = now
        for _ in range(outcome.serialized_accesses):
            response = self.dram.access_set(set_index, 1, ready)
            ready = response.ready_ns
        if outcome.nvm_read:
            response = self.nvm.read_line(addr, ready)
            ready = response.ready_ns
            # Fill write to the cache happens off the critical path; we
            # still occupy the DRAM bus for it.
            self.dram.access_set(set_index, 1, ready)
        return ready
