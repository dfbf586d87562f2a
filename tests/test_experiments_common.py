"""Tests for the shared experiment machinery (Settings, parse_args)."""

import pytest

from repro.experiments.common import (
    Settings,
    baseline_design,
    parse_args,
    run_matrix,
)
from repro.workloads.spec import main_suite


class TestSettings:
    def test_defaults(self):
        settings = Settings()
        assert settings.num_accesses == 200_000
        assert settings.suite == main_suite()
        assert 0.0 <= settings.warmup < 1.0

    def test_quick_shrinks(self):
        quick = Settings().quick()
        assert quick.num_accesses < Settings().num_accesses
        assert len(quick.suite) < len(main_suite())

    def test_quick_does_not_mutate_original(self):
        settings = Settings()
        settings.quick()
        assert settings.num_accesses == 200_000


class TestParseArgs:
    def test_defaults(self):
        settings = parse_args("d", [])
        assert settings.num_accesses == 200_000
        assert settings.seed == 7

    def test_accesses_and_seed(self):
        settings = parse_args("d", ["--accesses", "5000", "--seed", "3"])
        assert settings.num_accesses == 5000
        assert settings.seed == 3

    def test_quick_flag(self):
        settings = parse_args("d", ["--quick"])
        assert len(settings.suite) == 4

    def test_explicit_accesses_wins_over_quick(self):
        settings = parse_args("d", ["--quick", "--accesses", "123456"])
        assert settings.num_accesses == 123456
        assert len(settings.suite) == 4  # quick suite still applies

    def test_workloads_subset(self):
        settings = parse_args("d", ["--workloads", "soplex,mcf,mix3"])
        assert settings.suite == ["soplex", "mcf", "mix3"]

    def test_workloads_override_quick_suite(self):
        settings = parse_args("d", ["--quick", "--workloads", "libq"])
        assert settings.suite == ["libq"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            parse_args("d", ["--workloads", "not_a_workload"])

    def test_scale(self):
        settings = parse_args("d", ["--scale", "0.0078125"])
        assert settings.scale == 0.0078125
        with pytest.raises(SystemExit):
            parse_args("d", ["--scale", "2.0"])

    def test_executor_flags(self):
        settings = parse_args(
            "d", ["-j", "4", "--results-dir", "/tmp/x", "--no-store"]
        )
        assert settings.jobs == 4
        assert settings.results_dir == "/tmp/x"
        assert settings.use_store is False
        with pytest.raises(SystemExit):
            parse_args("d", ["-j", "0"])


class TestRunMatrixExecution:
    """:func:`run_matrix` on the executor: parallel, warm and storeless."""

    MATRIX = {"direct": baseline_design()}

    def settings(self, tmp_path, jobs=1, **overrides):
        return Settings(
            num_accesses=3000,
            suite=["soplex", "libq"],
            jobs=jobs,
            results_dir=str(tmp_path),
            **overrides,
        )

    @pytest.fixture
    def executors(self, monkeypatch):
        """Every executor :func:`run_matrix` builds, in order."""
        built = []
        make = Settings.make_executor

        def keep(self, *args, **kwargs):
            built.append(make(self, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(Settings, "make_executor", keep)
        return built

    def test_parallel_matches_serial(self, tmp_path):
        left = run_matrix(self.settings(tmp_path / "a"), self.MATRIX)
        right = run_matrix(self.settings(tmp_path / "b", jobs=2), self.MATRIX)
        assert {w: r.to_dict() for w, r in left["direct"].items()} == \
               {w: r.to_dict() for w, r in right["direct"].items()}

    def test_warm_restart_skips_simulation(self, tmp_path, executors):
        run_matrix(self.settings(tmp_path), self.MATRIX)
        run_matrix(self.settings(tmp_path), self.MATRIX)
        cold, warm = executors
        assert cold.stats.executed == 2
        assert warm.stats.executed == 0
        assert warm.stats.cached == 2

    def test_store_disabled(self, tmp_path, executors):
        settings = self.settings(tmp_path, use_store=False)
        run_matrix(settings, self.MATRIX)
        run_matrix(settings, self.MATRIX)
        first, rerun = executors
        assert first.store is None
        assert rerun.stats.executed == 2


class TestBaseline:
    def test_baseline_is_direct_mapped(self):
        design = baseline_design()
        assert design.kind == "direct"
        assert design.ways == 1
