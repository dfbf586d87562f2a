"""Smoke + invariant tests for every experiment module (quick settings).

Each experiment's ``run()`` must produce a non-empty report; the cheap
analytic experiments additionally assert paper-exact content.
"""

import pytest

from repro.experiments import EXPERIMENT_MODULES
from repro.experiments.common import Settings, SuiteRunner, baseline_design


def quick_settings():
    return Settings().quick()


class TestAnalyticExperiments:
    def test_table1(self):
        from repro.experiments import table1_lookup_cost

        report = table1_lookup_cost.run(ways=8)
        assert "Parallel Lookup (8-way)" in report
        assert "8 transfer" in report

    def test_table9(self):
        from repro.experiments import table9_storage

        report = table9_storage.run()
        assert "320 Bytes" in report
        assert "0 Bytes" in report

    def test_fig6_small(self):
        from repro.experiments import fig6_cyclic

        report = fig6_cyclic.run(trials=4)
        assert "PIP=50%" in report
        assert "128" in report

    @pytest.mark.parametrize(
        "pip,iterations,trials", [(0.5, 2, 3), (0.7, 16, 5), (0.9, 64, 4)]
    )
    def test_fig6_fused_matches_per_address_loop(self, pip, iterations, trials):
        """The fused pass reproduces one ``cache.read`` per address exactly."""
        from repro.cache.geometry import CacheGeometry
        from repro.core.accord import AccordDesign, make_design
        from repro.experiments import fig6_cyclic
        from repro.workloads.cyclic import (
            cyclic_trace,
            same_preferred_conflicting_addresses,
        )

        capacity = fig6_cyclic._KERNEL_CAPACITY
        addresses = same_preferred_conflicting_addresses(capacity, ways=2, count=2)
        trace = cyclic_trace(addresses, iterations)
        total = 0.0
        for trial in range(trials):
            cache = make_design(
                AccordDesign(kind="pws", ways=2, pip=pip),
                CacheGeometry(capacity, 2),
                seed=trial + 1,
            )
            for addr in trace.addrs:
                cache.read(addr)
            total += cache.stats.hit_rate
        expected = total / trials
        assert fig6_cyclic.simulated_hit_rate(pip, iterations, trials) == expected

    def test_fig6_pips_fuse_like_single_pip_runs(self):
        from repro.experiments import fig6_cyclic

        rates = fig6_cyclic.simulated_hit_rates(fig6_cyclic.PIPS, 8, trials=3)
        assert rates == [
            fig6_cyclic.simulated_hit_rate(pip, 8, trials=3)
            for pip in fig6_cyclic.PIPS
        ]


class TestPaperGeometryFootprint:
    """Table IX's 4 GB-geometry cache never allocates its tag store."""

    LIMIT = 16 * 1024 * 1024

    @staticmethod
    def _peak_bytes(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_make_design_at_paper_geometry(self):
        from repro.cache.geometry import CacheGeometry
        from repro.core.accord import AccordDesign, make_design
        from repro.experiments.table9_storage import PAPER_CAPACITY

        geometry = CacheGeometry(PAPER_CAPACITY, 2)
        peak = self._peak_bytes(
            lambda: make_design(AccordDesign(kind="accord", ways=2), geometry)
        )
        assert peak < self.LIMIT

    def test_table9_run(self):
        from repro.experiments import table9_storage

        table9_storage.run()  # warm imports outside the measurement
        assert self._peak_bytes(table9_storage.run) < self.LIMIT


class TestModuleRegistry:
    def test_all_modules_importable(self):
        import importlib

        for name in EXPERIMENT_MODULES:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert hasattr(module, "run")
            assert hasattr(module, "main")

    def test_registry_complete(self):
        assert len(EXPERIMENT_MODULES) == 18


@pytest.mark.slow
class TestQuickRuns:
    """Each simulation-backed experiment runs end-to-end on the quick
    configuration. These take a few seconds each."""

    def test_fig1(self):
        from repro.experiments import fig1_associativity

        report = fig1_associativity.run(quick_settings())
        assert "8-way" in report

    def test_table5(self):
        from repro.experiments import table5_pip

        report = table5_pip.run(quick_settings())
        assert "PIP=85%" in report
        assert "Direct-Mapped (PIP=100%)" in report

    def test_fig7(self):
        from repro.experiments import fig7_accuracy

        report = fig7_accuracy.run(quick_settings())
        assert "PWS+GWS" in report

    def test_table6(self):
        from repro.experiments import table6_hitrate

        report = table6_hitrate.run(quick_settings())
        assert "PWS+GWS" in report

    def test_fig10(self):
        from repro.experiments import fig10_speedup_2way

        report = fig10_speedup_2way.run(quick_settings())
        assert "Perfect WP" in report
        assert "Gmean" in report

    def test_table7(self):
        from repro.experiments import table7_sws_hitrate

        report = table7_sws_hitrate.run(quick_settings())
        assert "SWS (8,2-way)" in report

    def test_fig13(self):
        from repro.experiments import fig13_sws_speedup

        report = fig13_sws_speedup.run(quick_settings())
        assert "ACCORD SWS(8,2)" in report

    def test_fig12_quick_suite(self):
        from repro.experiments import fig12_all_workloads

        report = fig12_all_workloads.run(quick_settings())
        assert "worst-case" in report

    def test_table2(self):
        from repro.experiments import table2_predictor_storage

        report = table2_predictor_storage.run(quick_settings())
        assert "32MB" in report  # partial-tag at 4GB
        assert "4MB" in report  # MRU at 4GB

    def test_table10(self):
        from repro.experiments import table10_predictors

        report = table10_predictors.run(quick_settings())
        assert "N/A" in report  # CA-cache has no 4/8-way variant
        assert "320 bytes" in report

    def test_fig14(self):
        from repro.experiments import fig14_predictor_speedup

        report = fig14_predictor_speedup.run(quick_settings())
        assert "CA-Cache (0B)" in report

    def test_fig15(self):
        from repro.experiments import fig15_energy

        report = fig15_energy.run(quick_settings())
        assert "EDP" in report

    def test_table4(self):
        from repro.experiments import table4_workloads

        report = table4_workloads.run(quick_settings())
        assert "soplex" in report

    def test_table8(self):
        from repro.experiments import table8_cache_size

        settings = quick_settings()
        report = table8_cache_size.run(settings)
        assert "4.0GB" in report

    def test_ablation_replacement(self):
        from repro.experiments import ablations

        report = ablations.run(quick_settings(), which=["replacement"])
        assert "lru" in report

    def test_ablation_sws_hashes(self):
        from repro.experiments import ablations

        report = ablations.run(quick_settings(), which=["sws-hashes"])
        assert "SWS(8,1)" in report and "SWS(8,4)" in report


class TestFig12Suite:
    """Figure 12 widens only the default suite to all 46 workloads;
    pinned with the suite runner stubbed, so nothing is simulated."""

    @pytest.fixture
    def fig12(self, monkeypatch):
        from repro.experiments import fig12_all_workloads

        class StubRunner:
            def __init__(self, settings):
                self.suite = settings.suite

            def run(self, label, design):
                pass

            def speedups(self, label, baseline):
                return {w: 1.0 for w in self.suite}

        monkeypatch.setattr(fig12_all_workloads, "SuiteRunner", StubRunner)
        return fig12_all_workloads

    def test_default_suite_widens_to_46(self, fig12):
        settings = Settings()
        before = list(settings.suite)
        assert "46 workloads" in fig12.run(settings)
        assert settings.suite == before  # the caller's settings are untouched

    def test_quick_suite_is_kept(self, fig12):
        assert "4 workloads" in fig12.run(quick_settings())

    def test_explicit_suite_is_kept(self, fig12):
        from repro.workloads.spec import extended_suite

        suite = extended_suite()[:30]
        assert "30 workloads" in fig12.run(Settings(suite=suite))


class TestSuiteRunnerMachinery:
    def test_memoizes_runs(self):
        settings = quick_settings()
        settings.suite = ["sphinx"]
        settings.num_accesses = 10_000
        runner = SuiteRunner(settings)
        first = runner.run("direct", baseline_design())
        second = runner.run("direct", baseline_design())
        assert first is second

    def test_traces_shared_across_designs(self):
        settings = quick_settings()
        settings.suite = ["sphinx"]
        settings.num_accesses = 10_000
        runner = SuiteRunner(settings)
        trace_before = runner.traces.trace_for("sphinx")
        runner.run("direct", baseline_design())
        assert runner.traces.trace_for("sphinx") is trace_before
