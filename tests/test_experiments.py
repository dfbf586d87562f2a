"""Smoke + invariant tests for every experiment module (quick settings).

Each experiment's ``run()`` must produce a non-empty report; the cheap
analytic experiments additionally assert paper-exact content.
"""

from dataclasses import replace

import pytest

from repro.experiments import EXPERIMENT_MODULES
from repro.experiments.common import Settings, baseline_design, run_matrix


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
        assert fig6_cyclic.simulated_hit_rates((pip,), iterations, trials) == [expected]

    def test_fig6_pips_fuse_like_single_pip_runs(self):
        from repro.experiments import fig6_cyclic

        rates = fig6_cyclic.simulated_hit_rates(fig6_cyclic.PIPS, 8, trials=3)
        assert rates == [
            fig6_cyclic.simulated_hit_rates((pip,), 8, trials=3)[0]
            for pip in fig6_cyclic.PIPS
        ]


FIG6_TRIALS = 4


@pytest.fixture
def fig6_trace_dir(tmp_path, monkeypatch):
    root = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_DIR", str(root))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    return root


def fig6_entries(root):
    return sorted(root.glob("[0-9a-f][0-9a-f]/*.npz"))


def fig6_in_subprocess():
    """Figure 6's report from a fresh interpreter (same environment)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    code = (
        "from repro.experiments import fig6_cyclic; "
        f"print(fig6_cyclic.run(trials={FIG6_TRIALS}), end='')"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return done.stdout


class TestFig6Memo:
    """Figure 6's simulated rates live in the trace cache, one entry per N."""

    def test_warm_run_in_another_process_simulates_nothing(
        self, fig6_trace_dir, monkeypatch
    ):
        from repro.experiments import fig6_cyclic
        from repro.sim.engines import multi

        cold = fig6_in_subprocess()
        assert len(fig6_entries(fig6_trace_dir)) == len(fig6_cyclic.ITERATIONS)
        designs = []
        make_design = fig6_cyclic.make_design
        monkeypatch.setattr(
            fig6_cyclic, "make_design",
            lambda *args, **kwargs: designs.append(args) or make_design(
                *args, **kwargs),
        )
        import repro.workloads.trace_cache as trace_cache_module

        opened = []
        monkeypatch.setattr(
            trace_cache_module, "load_trace_npz",
            lambda *args, **kwargs: opened.append(args),
        )
        passes = multi.fused_pass_count()
        assert fig6_cyclic.run(trials=FIG6_TRIALS) == cold
        assert multi.fused_pass_count() == passes
        assert designs == []
        assert opened == []  # the rates come from the key sidecars alone

    def test_memoized_rates_equal_simulated(self, fig6_trace_dir):
        from repro.experiments import fig6_cyclic

        expected = fig6_cyclic.simulated_hit_rates(fig6_cyclic.PIPS, 16, 3)
        for _ in range(2):  # cold, then read back
            assert fig6_cyclic.cached_rates(
                fig6_cyclic.PIPS, 16, 3)[1] == expected
        assert len(fig6_entries(fig6_trace_dir)) == 1

    def test_cache_off_writes_nothing(self, fig6_trace_dir, monkeypatch):
        from repro.experiments import fig6_cyclic

        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        expected = fig6_cyclic.simulated_hit_rates(fig6_cyclic.PIPS, 4, 3)
        assert fig6_cyclic.cached_rates(fig6_cyclic.PIPS, 4, 3)[1] == expected
        assert not fig6_trace_dir.exists()

    def test_key_digest_covers_every_input(self):
        from dataclasses import replace

        from repro.experiments.fig6_cyclic import CyclicKey

        base = CyclicKey(1 << 20, 2, (0.5, 0.7), 8, 32)
        variants = [
            replace(base, capacity_bytes=1 << 21), replace(base, ways=4),
            replace(base, pips=(0.5, 0.8)), replace(base, pips=(0.5,)),
            replace(base, iterations=16), replace(base, trials=31),
        ]
        digests = {key.digest() for key in variants}
        assert base.digest() not in digests
        assert len(digests) == len(variants)

    @pytest.mark.parametrize("tamper", [
        lambda meta: meta["hit_rates"].__setitem__(2, 0.5),
        lambda meta: meta.__setitem__("sha256", "0" * 64),
        lambda meta: meta["hit_rates"].pop(),
        lambda meta: meta.pop("sha256"),
        lambda meta: meta["analytic_rates"].__setitem__(1, 0.5),
    ], ids=["edited-rate", "edited-digest", "short", "no-digest",
            "edited-analytic"])
    def test_tampered_rates_are_quarantined_and_recomputed(
        self, fig6_trace_dir, tamper
    ):
        import json

        from repro.experiments import fig6_cyclic

        expected = fig6_cyclic.run(trials=FIG6_TRIALS)
        sidecar = sorted(fig6_trace_dir.glob("*/*.key.json"))[0]
        record = json.loads(sidecar.read_text())
        tamper(record["meta"])
        sidecar.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert fig6_cyclic.run(trials=FIG6_TRIALS) == expected
        quarantined = fig6_trace_dir / "quarantine"
        assert len(list(quarantined.glob("*.npz"))) == 1
        # The recompute was stored again; the next run reads it cleanly.
        assert len(fig6_entries(fig6_trace_dir)) == len(fig6_cyclic.ITERATIONS)
        assert fig6_cyclic.run(trials=FIG6_TRIALS) == expected


    def test_warm_run_runs_no_chain(self, fig6_trace_dir, monkeypatch):
        from repro.experiments import fig6_cyclic

        cold = fig6_in_subprocess()
        chains = []
        monkeypatch.setattr(
            fig6_cyclic, "cyclic_pws_hit_rate",
            lambda *args: chains.append(args),
        )
        assert fig6_cyclic.run(trials=FIG6_TRIALS) == cold
        assert chains == []  # the analytic rates ride in the sidecars

    def test_sidecar_without_analytic_rates_is_rewritten(
        self, fig6_trace_dir
    ):
        import json

        from repro.analysis.analytic import cyclic_pws_hit_rate
        from repro.experiments import fig6_cyclic
        from repro.workloads.trace_cache import digested_floats

        expected = fig6_cyclic.run(trials=FIG6_TRIALS)
        sidecar = sorted(fig6_trace_dir.glob("*/*.key.json"))[0]
        record = json.loads(sidecar.read_text())
        # The simulated rates alone, as the sidecar held them before the
        # analytic rates rode along.
        record["meta"] = digested_floats(
            "hit_rates", record["meta"]["hit_rates"]
        )
        sidecar.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="analytic_rates"):
            assert fig6_cyclic.run(trials=FIG6_TRIALS) == expected
        rewritten = json.loads(sidecar.read_text())["meta"]
        assert set(rewritten) == {"hit_rates", "analytic_rates", "sha256"}
        n = json.loads(record["key"])["iterations"]
        assert rewritten["analytic_rates"] == [
            cyclic_pws_hit_rate(pip, n) for pip in fig6_cyclic.PIPS
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
    pinned with the matrix runner stubbed, so nothing is simulated."""

    @pytest.fixture
    def fig12(self, monkeypatch):
        from repro.experiments import fig12_all_workloads

        class Even:
            def speedup_over(self, baseline):
                return 1.0

        def stub_run_matrix(settings, matrix):
            return {label: {w: Even() for w in settings.suite}
                    for label in matrix}

        monkeypatch.setattr(fig12_all_workloads, "run_matrix", stub_run_matrix)
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


class TestRunMatrixMachinery:
    """:func:`run_matrix`, the suite runner every experiment calls."""

    def test_traces_shared_across_designs(self, tmp_path, monkeypatch):
        from repro.core.accord import AccordDesign
        from repro.exec import jobs
        from repro.workloads.synthetic import SyntheticWorkload

        # No on-disk or in-process trace memo left over from other tests.
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        monkeypatch.setattr(jobs, "_FACTORY_CACHE", {})
        generated = []
        generate = SyntheticWorkload.generate

        def counting(self, num_accesses, name=None):
            generated.append(self.spec.name)
            return generate(self, num_accesses, name)

        monkeypatch.setattr(SyntheticWorkload, "generate", counting)
        settings = replace(
            quick_settings(), suite=["sphinx", "mcf"], num_accesses=10_000,
            results_dir=str(tmp_path),
            jobs=1,  # generation is counted in this process
        )
        run_matrix(settings, {
            "direct": baseline_design(),
            "accord": AccordDesign(kind="accord", ways=2),
        })
        assert sorted(generated) == ["mcf", "sphinx"]


def _pieces():
    """name -> run(settings): one per experiment, one per ablation section."""
    import importlib

    from repro.experiments.ablations import ABLATIONS

    pieces = {}
    for name in EXPERIMENT_MODULES:
        if name == "ablations":
            for section, run in ABLATIONS.items():
                pieces[f"ablations:{section}"] = run
        else:
            module = importlib.import_module(f"repro.experiments.{name}")
            pieces[name] = module.run
    return pieces


#: Pieces that compute analytically or drive their own engines.
NO_MATRIX = {"table1_lookup_cost", "table9_storage", "fig6_cyclic",
             "ablations:mru-filtering"}


class TestOneMatrixPerPiece:
    """Every simulating experiment and ablation section resolves its
    whole design matrix in one ``Executor.run``, and no piece changes
    the settings it is handed (``repro run all`` shares one)."""

    @pytest.mark.parametrize("name", sorted(_pieces()))
    def test_one_executor_run_and_settings_untouched(
        self, name, tmp_path, monkeypatch
    ):
        import copy

        from repro.exec import Executor

        calls = []
        run = Executor.run

        def counting(self, keys):
            calls.append(len(keys))
            return run(self, keys)

        monkeypatch.setattr(Executor, "run", counting)
        # A mix in the suite: Table IV drops it from its own copy.
        settings = Settings(num_accesses=2000, suite=["soplex", "mix1"],
                            jobs=1, results_dir=str(tmp_path))
        before = copy.deepcopy(settings)
        assert _pieces()[name](settings)
        assert len(calls) == (0 if name in NO_MATRIX else 1)
        assert settings == before

    def test_table8_baseline_cells_come_first(self, tmp_path, monkeypatch):
        from repro.exec import Executor
        from repro.experiments import table8_cache_size
        from repro.params.system import GRID_SCALE

        seen = []
        run = Executor.run

        def recording(self, keys):
            seen.extend(keys)
            return run(self, keys)

        monkeypatch.setattr(Executor, "run", recording)
        table8_cache_size.run(Settings(num_accesses=2000, suite=["soplex"],
                                       jobs=1, results_dir=str(tmp_path)))
        sizes = len(table8_cache_size.SIZES_GB)
        assert [k.design.kind for k in seen] == ["direct"] * sizes + ["sws"] * sizes
        assert {k.footprint_scale for k in seen} == {GRID_SCALE}
        assert len({k.scale for k in seen}) == sizes
