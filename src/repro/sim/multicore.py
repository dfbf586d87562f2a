"""True multi-core simulation: N cores sharing one DRAM cache.

The experiment harness evaluates rate mode analytically (one core's
trace, bandwidth x16), which is exact when all cores run the same
benchmark. Mix workloads, however, *contend*: cores with different
footprints and rates share cache capacity and bus bandwidth. This
module interleaves per-core traces through one shared cache with
per-core statistics, then solves a shared fixed point:

* all cores see queueing from the *aggregate* traffic;
* each core's runtime follows from its own access mix at that queueing
  level;
* aggregate traffic flows for as long as the longest-running core, so
  utilization is computed against the maximum per-core runtime.

Reported metrics are per-core runtimes and the paper's weighted
speedup (via :mod:`repro.sim.cpu`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.accord import AccordDesign
from repro.errors import SimulationError
from repro.params.system import LINE_SIZE, SystemConfig, TRANSFER_BYTES
from repro.sim.cpu import CorePerformance, weighted_speedup
from repro.sim.stats import CacheStats
from repro.sim.system import build_dram_cache
from repro.sim.timing_model import IntervalTimingModel
from repro.sim.trace import Trace
from repro.utils.fixedpoint import solve_fixed_point


@dataclass
class MultiCoreResult:
    """Outcome of one shared-cache run."""

    per_core_stats: List[CacheStats]
    per_core_runtime_ns: List[float]
    per_core_instructions: List[float]

    @property
    def num_cores(self) -> int:
        return len(self.per_core_stats)

    def performances(self) -> List[CorePerformance]:
        return [
            CorePerformance(instr, runtime)
            for instr, runtime in zip(
                self.per_core_instructions, self.per_core_runtime_ns
            )
        ]

    def weighted_speedup_over(self, baseline: "MultiCoreResult") -> float:
        return weighted_speedup(self.performances(), baseline.performances())


class MultiCoreSimulator:
    """Interleaves per-core traces through one shared cache design."""

    def __init__(self, config: SystemConfig, design: AccordDesign, seed: int = 1,
                 chunk: int = 64):
        if chunk < 1:
            raise SimulationError("chunk must be >= 1")
        self.config = config
        self.design = design
        self.seed = seed
        self.chunk = chunk
        self.cache = build_dram_cache(design, config, seed=seed)
        self.timing_model = IntervalTimingModel(config)

    # -- functional phase ---------------------------------------------------

    def _interleave(self, traces: Sequence[Trace], warmup_fraction: float
                    ) -> List[CacheStats]:
        cache = self.cache
        cursors = [0] * len(traces)
        lengths = [len(t) for t in traces]
        warm_marks = [int(n * warmup_fraction) for n in lengths]
        stats = [CacheStats() for _ in traces]
        warm_stats = [CacheStats() for _ in traces]
        in_warmup = [True] * len(traces)

        columns = [t.scalar_columns() for t in traces]
        live = set(range(len(traces)))
        while live:
            for core in list(live):
                cache.stats = warm_stats[core] if in_warmup[core] else stats[core]
                stop = min(cursors[core] + self.chunk, lengths[core])
                addrs, writes = columns[core]
                for i in range(cursors[core], stop):
                    if writes[i]:
                        cache.writeback(addrs[i])
                    else:
                        cache.read(addrs[i])
                    # Switch measurement window exactly at the mark.
                    if in_warmup[core] and i + 1 >= warm_marks[core]:
                        in_warmup[core] = False
                        cache.stats = stats[core]
                cursors[core] = stop
                if stop >= lengths[core]:
                    live.discard(core)
        return stats

    # -- timing phase ---------------------------------------------------------

    def _solve_timing(self, stats: List[CacheStats],
                      instructions: List[float]) -> List[float]:
        model = self.timing_model
        core_cfg = self.config.cores
        dram_bytes = sum(s.total_cache_transfers for s in stats) * TRANSFER_BYTES
        nvm_bytes = sum(s.nvm_reads + s.nvm_writes for s in stats) * LINE_SIZE

        def core_runtime(core: int, q_dram: float, q_nvm: float) -> float:
            s = stats[core]
            reads = s.demand_reads
            base = instructions[core] * core_cfg.base_cpi / core_cfg.frequency_ghz
            if not reads:
                return base
            transfers = s.cache_read_transfers / reads
            extra = s.hit_extra_probes / reads
            miss = s.misses / reads
            latency = (
                model.first_probe_ns
                + model.dram_service_ns
                + transfers * q_dram
                + extra * (model.extra_probe_ns + model.dram_service_ns)
                + miss * (self.config.nvm_timing.read_ns
                          + model.nvm_service_ns + q_nvm)
            )
            return base + reads * latency / core_cfg.mlp

        def makespan(elapsed_ns: float) -> float:
            rho_dram = min(
                dram_bytes / (self.config.dram_bus.sustainable_bandwidth_gbps
                              * elapsed_ns), 0.98,
            )
            rho_nvm = min(
                nvm_bytes / (self.config.nvm_bus.sustainable_bandwidth_gbps
                             * elapsed_ns), 0.98,
            )
            q_dram = model.dram_service_ns * rho_dram ** 3 / (1.0 - rho_dram)
            q_nvm = model.nvm_service_ns * rho_nvm / (1.0 - rho_nvm)
            return max(
                core_runtime(core, q_dram, q_nvm) for core in range(len(stats))
            )

        final = solve_fixed_point(makespan, initial=1e4)
        rho_dram = min(
            dram_bytes / (self.config.dram_bus.sustainable_bandwidth_gbps * final),
            0.98,
        )
        rho_nvm = min(
            nvm_bytes / (self.config.nvm_bus.sustainable_bandwidth_gbps * final),
            0.98,
        )
        q_dram = model.dram_service_ns * rho_dram ** 3 / (1.0 - rho_dram)
        q_nvm = model.nvm_service_ns * rho_nvm / (1.0 - rho_nvm)
        return [core_runtime(core, q_dram, q_nvm) for core in range(len(stats))]

    # -- public API -----------------------------------------------------------

    def run(self, traces: Sequence[Trace],
            warmup_fraction: float = 0.25) -> MultiCoreResult:
        """Run per-core traces through the shared cache."""
        if not traces:
            raise SimulationError("need at least one core trace")
        if not 0.0 <= warmup_fraction < 1.0:
            raise SimulationError("warmup fraction must be in [0, 1)")
        stats = self._interleave(traces, warmup_fraction)
        instructions = [
            s.demand_reads * t.instructions_per_access
            for s, t in zip(stats, traces)
        ]
        if any(i <= 0 for i in instructions):
            raise SimulationError("a core retired no post-warmup reads")
        runtimes = self._solve_timing(stats, instructions)
        return MultiCoreResult(
            per_core_stats=stats,
            per_core_runtime_ns=runtimes,
            per_core_instructions=instructions,
        )
