"""Tests for the shared-cache multi-core simulator."""

import pytest

from repro.core.accord import AccordDesign
from repro.errors import SimulationError
from repro.params.system import scaled_system
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.trace import trace_from_arrays
from repro.workloads.spec import get_workload
from repro.workloads.synthetic import SyntheticWorkload

SCALE = 1.0 / 1024.0  # 4MB cache


def config(ways=2):
    return scaled_system(ways=ways, scale=SCALE)


def hot_trace(name, base, lines=200, repeats=20, ipa=40.0):
    addrs = [base + (i % lines) * 64 for i in range(lines * repeats)]
    return trace_from_arrays(name, addrs, [0] * len(addrs), ipa)


def combined_hit_rate(result):
    hits = sum(s.hits for s in result.per_core_stats)
    accesses = sum(s.accesses for s in result.per_core_stats)
    return hits / accesses


class TestMultiCore:
    def test_per_core_stats_separate(self):
        sim = MultiCoreSimulator(config(), AccordDesign(kind="accord", ways=2))
        cap = config().dram_cache.capacity_bytes
        result = sim.run(
            [hot_trace("a", 0), hot_trace("b", cap // 4)], warmup_fraction=0.25
        )
        assert result.num_cores == 2
        for stats in result.per_core_stats:
            assert stats.demand_reads == 3000  # 4000 minus 25% warmup
            assert stats.hit_rate > 0.9  # hot sets fit easily

    def test_disjoint_cores_do_not_interfere(self):
        sim = MultiCoreSimulator(config(), AccordDesign(kind="accord", ways=2))
        cap = config().dram_cache.capacity_bytes
        result = sim.run(
            [hot_trace("a", 0), hot_trace("b", cap // 4)], warmup_fraction=0.25
        )
        solo = MultiCoreSimulator(config(), AccordDesign(kind="accord", ways=2))
        solo_result = solo.run([hot_trace("a", 0)], warmup_fraction=0.25)
        assert result.per_core_stats[0].hit_rate == pytest.approx(
            solo_result.per_core_stats[0].hit_rate, abs=0.02
        )

    def test_contention_lowers_hit_rate(self):
        """Working sets that fit alone but not together lose hit-rate."""
        cap = config().dram_cache.capacity_bytes
        total_lines = cap // 64
        hot_lines = int(total_lines * 0.6)  # each fits alone, not together

        def looping(name, base):
            addrs = [base + (i % hot_lines) * 64 for i in range(60_000)]
            return trace_from_arrays(name, addrs, [0] * len(addrs), 40.0)

        shared = MultiCoreSimulator(config(), AccordDesign(kind="accord", ways=2))
        both = shared.run([looping("a", 0), looping("b", cap)],
                          warmup_fraction=0.3)
        alone = MultiCoreSimulator(config(), AccordDesign(kind="accord", ways=2))
        one = alone.run([looping("a", 0)], warmup_fraction=0.3)
        # Core b's range aliases core a's sets (offset = capacity), so
        # the combined 1.2x-capacity working set spills.
        assert combined_hit_rate(both) < combined_hit_rate(one) - 0.03

    def test_weighted_speedup(self):
        cap = config().dram_cache.capacity_bytes
        traces = [hot_trace("a", 0), hot_trace("b", cap // 4)]
        base = MultiCoreSimulator(
            config(), AccordDesign(kind="parallel", ways=2)
        ).run(traces)
        better = MultiCoreSimulator(
            config(), AccordDesign(kind="accord", ways=2)
        ).run(traces)
        ws = better.weighted_speedup_over(base)
        assert ws > 0.9  # sane range; accord shouldn't collapse

    def test_synthetic_mix_runs(self):
        cfg = config()
        cap = cfg.dram_cache.capacity_bytes
        traces = []
        for index, name in enumerate(("libq", "mcf")):
            spec = get_workload(name).scaled(SCALE)
            gen = SyntheticWorkload(
                spec, cap, seed=5, addr_base=index * (1 << 16) * cap
            )
            traces.append(gen.generate(10_000))
        sim = MultiCoreSimulator(cfg, AccordDesign(kind="sws", ways=8, hashes=2))
        result = sim.run(traces, warmup_fraction=0.3)
        assert all(r > 0 for r in result.per_core_runtime_ns)

    def test_validation(self):
        sim = MultiCoreSimulator(config(), AccordDesign(kind="accord", ways=2))
        with pytest.raises(SimulationError):
            sim.run([])
        with pytest.raises(SimulationError):
            sim.run([hot_trace("a", 0)], warmup_fraction=1.0)
        with pytest.raises(SimulationError):
            MultiCoreSimulator(config(), AccordDesign(kind="accord", ways=2), chunk=0)
