"""Interval (fixed-point) timing model.

Converts the functional cache counters into runtime the way USIMM-class
simulators' aggregate behaviour comes out, without per-cycle
simulation:

* Each demand read's latency is the sum of its serialized DRAM-cache
  probes (the first probe pays an array access, follow-up probes hit
  the already-open row: Figure 2b co-locates all ways of a set in one
  row buffer) plus, on a miss, the NVM read.
* Every 72B tag+data transfer consumes stacked-DRAM bus bandwidth and
  every 64B line consumes NVM bus bandwidth; queueing delay grows with
  utilization ``rho`` (against sustainable bandwidth, capped at 0.98):
  ``S * rho**3 / (1 - rho)`` on the stacked DRAM and the M/M/1
  ``S * rho / (1 - rho)`` on the NVM, where ``S`` is one channel's
  transfer time for one unit.
* Utilization depends on runtime and runtime depends on queueing, so
  runtime is solved as a fixed point.

Rate-mode evaluation (all ``num_cores`` cores running the workload)
multiplies traffic by the core count while per-core instruction
throughput stays that of one core — exactly how bandwidth contention
punishes parallel lookup in the paper's Figure 1b.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.params.system import LINE_SIZE, SystemConfig, TRANSFER_BYTES
from repro.sim.stats import CacheStats
from repro.utils.fixedpoint import solve_fixed_point

_MAX_RHO = 0.98


@dataclass(frozen=True)
class TimingBreakdown:
    """Where the runtime went (per core, nanoseconds)."""

    runtime_ns: float
    base_ns: float
    stall_ns: float
    avg_read_latency_ns: float
    dram_utilization: float
    nvm_utilization: float
    dram_queue_ns: float
    nvm_queue_ns: float


class IntervalTimingModel:
    """Fixed-point runtime estimator for one workload run."""

    def __init__(self, config: SystemConfig):
        self.config = config
        timing = config.dram_timing
        # First probe: activate + CAS (the access stream is L3-filtered,
        # so consecutive demand reads rarely reuse a row).
        self.first_probe_ns = timing.row_empty_ns
        # Follow-up probe in the same row buffer: CAS only.
        self.extra_probe_ns = timing.row_hit_ns
        # Single-channel streaming time of one 72B tag+data unit.
        self.dram_service_ns = config.dram_bus.transfer_ns(TRANSFER_BYTES)
        self.nvm_service_ns = config.nvm_bus.transfer_ns(LINE_SIZE)

    # -- traffic ------------------------------------------------------------

    def dram_bytes(self, stats: CacheStats) -> int:
        return stats.total_cache_transfers * TRANSFER_BYTES

    def nvm_bytes(self, stats: CacheStats) -> int:
        return (stats.nvm_reads + stats.nvm_writes) * LINE_SIZE

    def _utilization(self, total_bytes: float, bandwidth_gbps: float,
                     elapsed_ns: float) -> float:
        peak = bandwidth_gbps * elapsed_ns  # GB/s * ns == bytes
        return min(total_bytes / peak, _MAX_RHO) if peak > 0 else _MAX_RHO

    @staticmethod
    def _queue_ns(service_ns: float, rho: float, knee: int = 1) -> float:
        """Queueing delay vs utilization.

        ``knee=1`` is M/M/1 — right for the NVM channels, which have
        little bank parallelism to absorb bursts. The stacked-DRAM
        channels sit in front of 16 banks each, so short bursts overlap
        and queueing is negligible until utilization approaches the
        knee; ``knee=3`` (rho^3/(1-rho)) captures that while keeping
        the saturation behaviour that punishes parallel lookup.
        """
        return service_ns * (rho ** knee) / (1.0 - rho)

    # -- runtime ------------------------------------------------------------

    def evaluate(
        self,
        stats: CacheStats,
        instructions: float,
        num_cores: int = None,
    ) -> TimingBreakdown:
        """Solve for one core's runtime under rate-mode bandwidth sharing."""
        if instructions <= 0:
            raise SimulationError("instruction count must be positive")
        cores = num_cores if num_cores is not None else self.config.cores.num_cores
        if cores <= 0:
            raise SimulationError("need at least one core")
        core_cfg = self.config.cores

        base_ns = instructions * core_cfg.base_cpi / core_cfg.frequency_ghz
        reads = stats.demand_reads
        dram_total = self.dram_bytes(stats) * cores
        nvm_total = self.nvm_bytes(stats) * cores

        # Only follow-up probes that found the line serialize the read;
        # miss-confirmation probes overlap the speculative NVM fetch
        # (their bus transfers are still in cache_read_transfers).
        extra_per_read = stats.hit_extra_probes / reads if reads else 0.0
        miss_per_read = stats.misses / reads if reads else 0.0
        # Transfers pipeline on the bus, so a read's own 72B unit adds
        # service latency once — but every unit streamed on its behalf
        # (including the extra ways a parallel lookup reads and the
        # miss-confirmation probes) contends in the channel queue. This
        # is what makes parallel lookup bandwidth-bound (Figure 1b).
        transfers_per_read = stats.cache_read_transfers / reads if reads else 0.0
        wb_nvm_latency = self.config.nvm_timing.read_ns

        def components(elapsed_ns: float):
            """Utilizations, queueing delays and mean read latency."""
            rho_dram = self._utilization(
                dram_total, self.config.dram_bus.sustainable_bandwidth_gbps, elapsed_ns
            )
            rho_nvm = self._utilization(
                nvm_total, self.config.nvm_bus.sustainable_bandwidth_gbps, elapsed_ns
            )
            q_dram = self._queue_ns(self.dram_service_ns, rho_dram, knee=3)
            q_nvm = self._queue_ns(self.nvm_service_ns, rho_nvm)
            read_latency = (
                self.first_probe_ns
                + self.dram_service_ns
                + transfers_per_read * q_dram
                + extra_per_read * (self.extra_probe_ns + self.dram_service_ns)
                + miss_per_read * (wb_nvm_latency + self.nvm_service_ns + q_nvm)
            )
            return rho_dram, rho_nvm, q_dram, q_nvm, read_latency

        def runtime(elapsed_ns: float) -> float:
            read_latency = components(elapsed_ns)[4]
            stall_ns = reads * read_latency / core_cfg.mlp
            return base_ns + stall_ns

        if reads == 0:
            final = base_ns
        else:
            final = solve_fixed_point(runtime, initial=max(base_ns, 1.0))

        # Recompute the components at the solution for reporting.
        rho_dram, rho_nvm, q_dram, q_nvm, read_latency = components(final)
        if reads:
            stall_ns = reads * read_latency / core_cfg.mlp
        else:
            read_latency = 0.0
            stall_ns = 0.0

        return TimingBreakdown(
            runtime_ns=final,
            base_ns=base_ns,
            stall_ns=stall_ns,
            avg_read_latency_ns=read_latency,
            dram_utilization=rho_dram,
            nvm_utilization=rho_nvm,
            dram_queue_ns=q_dram,
            nvm_queue_ns=q_nvm,
        )
