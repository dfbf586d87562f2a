"""Tests for the analysis package: analytic models, storage, energy,
report formatting."""

import pytest

from repro.analysis.analytic import (
    cyclic_pws_hit_rate,
    cyclic_pws_hit_rates,
    lookup_cost_table,
)
from repro.analysis.energy import EnergyModel, EnergyParams
from repro.analysis.report import FIGURE_WORKLOAD_ORDER, per_workload_table
from repro.analysis.storage import (
    accord_storage_bytes,
    predictor_storage_bytes,
    storage_table,
)
from repro.cache.geometry import CacheGeometry
from repro.errors import PolicyError, SimulationError
from repro.sim.stats import CacheStats

PAPER_GEOMETRY = CacheGeometry(4 * 1024 * 1024 * 1024, 2)


class TestLookupCostTable:
    def test_table_i_values_4way(self):
        costs = {c.organization: c for c in lookup_cost_table(4)}
        dm = costs["Direct-mapped"]
        assert (dm.hit_accesses, dm.hit_transfers) == (1, 1)
        par = costs["Parallel Lookup (4-way)"]
        assert par.hit_transfers == 4 and par.miss_transfers == 4
        ser = costs["Serial Lookup (4-way)"]
        assert ser.hit_accesses == 2.5 and ser.miss_accesses == 4
        wp = costs["Way Predicted (4-way)"]
        assert wp.hit_accesses == 1 and wp.miss_accesses == 4
        sws = costs["Way Predicted SWS(4,2)"]
        assert sws.miss_accesses == 2

    def test_rejects_bad_ways(self):
        with pytest.raises(PolicyError):
            lookup_cost_table(0)


class TestCyclicModel:
    def test_direct_mapped_is_zero(self):
        """PIP 1 installs every line in its preferred way: direct-mapped."""
        from repro.experiments.fig6_cyclic import simulated_hit_rates

        assert simulated_hit_rates((1.0,), 100, trials=2) == [0.0]

    def test_pip_one_is_direct_mapped(self):
        assert cyclic_pws_hit_rate(1.0, 64) == 0.0

    def test_unbiased_learns_fastest(self):
        for n in (4, 16, 64):
            assert (
                cyclic_pws_hit_rate(0.5, n)
                > cyclic_pws_hit_rate(0.8, n)
                > cyclic_pws_hit_rate(0.95, n)
            )

    def test_converges_with_reuse(self):
        # Figure 6: even PIP=90% eventually learns to use both ways.
        assert cyclic_pws_hit_rate(0.9, 128) > 0.9
        assert cyclic_pws_hit_rate(0.9, 2) < 0.3

    def test_monotone_in_iterations(self):
        rates = [cyclic_pws_hit_rate(0.85, n) for n in (2, 8, 32, 128)]
        assert rates == sorted(rates)

    def test_upper_bound(self):
        # 2 compulsory misses in 2N accesses bound the hit-rate.
        for n in (2, 8, 32):
            assert cyclic_pws_hit_rate(0.5, n) <= 1.0 - 1.0 / (2 * n) + 1e-9

    def test_matches_simulation(self):
        """The DP must agree with the real PWS cache on the kernel."""
        from repro.experiments.fig6_cyclic import simulated_hit_rates

        simulated = simulated_hit_rates((0.5, 0.8), 16, trials=64)
        for pip, rate in zip((0.5, 0.8), simulated):
            assert abs(cyclic_pws_hit_rate(pip, 16) - rate) < 0.08

    def test_validation(self):
        with pytest.raises(PolicyError):
            cyclic_pws_hit_rate(1.5, 10)
        with pytest.raises(PolicyError):
            cyclic_pws_hit_rate(0.5, 0)
        with pytest.raises(PolicyError):
            cyclic_pws_hit_rates(0.5, ())
        with pytest.raises(PolicyError):
            cyclic_pws_hit_rates(0.5, (4, 0))


def single_n_chain(pip, iterations):
    """The Markov chain run to one N only, as a separate DP would."""
    from repro.analysis.analytic import _install

    dist = {(-1, -1): 1.0}
    expected_hits = 0.0
    for _ in range(iterations):
        for which in (0, 1):
            expected_hits += sum(
                prob for locs, prob in dist.items() if locs[which] != -1
            )
            dist = _install(dist, which, pip)
    return expected_hits / (2.0 * iterations)


class TestCyclicModelOneChain:
    """cyclic_pws_hit_rates reads every N off one chain run, bit-exactly."""

    @pytest.mark.parametrize("pip", [0.5, 0.7, 0.8, 0.9])
    def test_equals_per_n_for_figure6(self, pip):
        from repro.experiments.fig6_cyclic import ITERATIONS, PIPS

        assert pip in PIPS
        rates = cyclic_pws_hit_rates(pip, ITERATIONS)
        assert rates == [cyclic_pws_hit_rate(pip, n) for n in ITERATIONS]
        assert rates == [single_n_chain(pip, n) for n in ITERATIONS]

    def test_any_order_and_repeats(self):
        rates = cyclic_pws_hit_rates(0.85, (8, 1, 3, 8))
        assert rates == [single_n_chain(0.85, n) for n in (8, 1, 3, 8)]
        assert rates[1] == 0.0  # one pass over (a, b): two cold misses


class TestStorage:
    def test_paper_numbers(self):
        # Table II / Table X storage at 4GB.
        assert predictor_storage_bytes("mru", PAPER_GEOMETRY) == 4 * 1024 * 1024
        assert predictor_storage_bytes("partial_tag", PAPER_GEOMETRY) == 32 * 1024 * 1024
        assert predictor_storage_bytes("rand", PAPER_GEOMETRY) == 0
        assert predictor_storage_bytes("accord", PAPER_GEOMETRY) == 320

    def test_accord_total(self):
        assert accord_storage_bytes(ways=2) == 320

    def test_storage_table_rows(self):
        rows = dict(storage_table(PAPER_GEOMETRY))
        assert rows["Probabilistic Way-Steering"] == 0
        assert rows["Skewed Way-Steering"] == 0
        assert rows["ACCORD"] == 320

    def test_unknown_predictor(self):
        with pytest.raises(PolicyError):
            predictor_storage_bytes("oracle", PAPER_GEOMETRY)


class TestEnergy:
    def _stats(self):
        return CacheStats(
            demand_reads=1000, hits=750, misses=250, first_probes=1000,
            cache_read_transfers=1200, cache_write_transfers=300,
            nvm_reads=250, nvm_writes=100,
        )

    def test_report_components(self):
        model = EnergyModel(num_cores=16)
        report = model.evaluate(self._stats(), runtime_ns=100_000.0)
        assert report.dynamic_dram_nj > 0
        assert report.dynamic_nvm_nj > 0
        assert report.static_nj > 0
        assert report.total_nj == pytest.approx(
            report.dynamic_dram_nj + report.dynamic_nvm_nj + report.static_nj
        )

    def test_power_and_edp(self):
        model = EnergyModel()
        report = model.evaluate(self._stats(), runtime_ns=100_000.0)
        assert report.power_w == pytest.approx(report.total_nj / 100_000.0)
        assert report.edp == pytest.approx(report.total_nj * 100_000.0)

    def test_relative(self):
        model = EnergyModel()
        base = model.evaluate(self._stats(), runtime_ns=100_000.0)
        stats = self._stats()
        stats.nvm_reads = 100  # fewer misses -> less NVM energy
        better = model.evaluate(stats, runtime_ns=90_000.0)
        relative = better.relative_to(base)
        assert relative["energy"] < 1.0
        assert relative["edp"] < 1.0
        assert relative["speedup"] > 1.0

    def test_nvm_writes_expensive(self):
        params = EnergyParams()
        assert params.nvm_write_nj > params.nvm_read_nj > params.dram_transfer_nj

    def test_validation(self):
        with pytest.raises(SimulationError):
            EnergyModel(num_cores=0)
        with pytest.raises(SimulationError):
            EnergyModel().evaluate(CacheStats(), runtime_ns=0.0)


class TestReport:
    def test_paper_order_respected(self):
        columns = {"A": {"soplex": 1.1, "milc": 0.99, "libq": 1.2}}
        table = per_workload_table(columns, title="t")
        lines = table.splitlines()
        milc_line = next(i for i, l in enumerate(lines) if l.startswith("milc"))
        libq_line = next(i for i, l in enumerate(lines) if l.startswith("libq"))
        soplex_line = next(i for i, l in enumerate(lines) if l.startswith("soplex"))
        assert milc_line < libq_line < soplex_line

    def test_gmean_row(self):
        columns = {"A": {"x": 2.0, "y": 0.5}}
        table = per_workload_table(columns, title="t")
        assert "Gmean" in table
        assert "1.000" in table.splitlines()[-1]

    def test_unknown_workloads_appended(self):
        columns = {"A": {"zzz": 1.0, "milc": 1.0}}
        table = per_workload_table(columns, title="t", gmean_row=False)
        lines = table.splitlines()
        assert lines[-1].startswith("zzz")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            per_workload_table({}, title="t")

    def test_order_constant_sane(self):
        assert len(FIGURE_WORKLOAD_ORDER) == 21
        assert FIGURE_WORKLOAD_ORDER[0] == "milc"
        assert FIGURE_WORKLOAD_ORDER[-1] == "mix4"
