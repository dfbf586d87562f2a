"""Tests for the `python -m repro` command-line interface."""

import csv

import pytest

from repro.__main__ import main
from repro.experiments import EXPERIMENT_MODULES


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENT_MODULES:
            assert name in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "4GB" in out
        assert "128 GB/s" in out

    def test_run_analytic_experiment(self, capsys):
        assert main(["run", "table1_lookup_cost"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_run_simulated_experiment_quick(self, capsys):
        assert main(["run", "table6_hitrate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PWS+GWS" in out

    def test_run_parallel_with_workload_subset(self, capsys, tmp_path):
        assert main([
            "run", "table6_hitrate", "--accesses", "3000",
            "--workloads", "soplex,libq", "-j", "2",
            "--results-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "PWS+GWS" in out

    def test_run_passes_every_executor_flag(self, capsys, tmp_path,
                                            monkeypatch):
        # `run` parses its settings once, so no flag is lost on the way
        # to the experiment's executor.
        from repro.exec import Executor

        built = []
        init = Executor.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Executor, "__init__", recording)
        assert main([
            "run", "table6_hitrate", "--accesses", "3000",
            "--workloads", "soplex", "--no-batch", "-j", "1",
            "--retries", "0", "--results-dir", str(tmp_path),
        ]) == 0
        (executor,) = built
        assert (executor.batch, executor.jobs, executor.retries) == (False, 1, 0)

    def test_engine_strict_probe_runs_before_any_job(self, capsys,
                                                     monkeypatch):
        # `run` and `sweep` share one --engine-strict probe: the vector
        # kernel cannot drive ACCORD's global state exactly, so both
        # stop before a job is scheduled.
        from repro.__main__ import EXIT_EXECUTION
        from repro.exec import Executor
        from repro.experiments import common

        probed = []
        probe = common.probe_strict_engines

        def counting(keys):
            probed.append(True)
            probe(keys)

        def no_jobs(self, keys):
            raise AssertionError("a job was scheduled")

        monkeypatch.setattr(common, "probe_strict_engines", counting)
        monkeypatch.setattr(Executor, "run", no_jobs)
        strict = ["--quick", "--engine", "vector", "--engine-strict"]
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--designs", "direct,accord:2", "--no-journal",
                  *strict])
        assert exc.value.code == 2
        assert "--engine-strict" in capsys.readouterr().err
        assert main(["run", "table6_hitrate", *strict]) == EXIT_EXECUTION
        assert "table6_hitrate failed" in capsys.readouterr().err
        assert len(probed) == 2

    def test_unknown_experiment(self, capsys):
        assert main(["run", "not_an_experiment"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCli:
    ARGS = ["sweep", "--designs", "direct,accord:2",
            "--workloads", "soplex,libq", "--accesses", "3000"]

    def test_sweep_reports_tables(self, capsys, tmp_path):
        assert main(self.ARGS + ["--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Sweep: hit rate" in out
        assert "speedup over direct-1way" in out
        assert "4 simulated, 0 from cache" in out

    def test_sweep_is_memoized_across_invocations(self, capsys, tmp_path):
        assert main(self.ARGS + ["--results-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--results-dir", str(tmp_path), "-j", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 4 from cache" in out

    def test_sweep_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main(self.ARGS + ["--results-dir", str(tmp_path / "store"),
                                 "--csv", str(csv_path)]) == 0
        rows = _csv_rows(csv_path)
        assert {row["workload"] for row in rows
                if row["series"] == "ACCORD 2-way"} == {"soplex", "libq"}

    def test_sweep_rejects_bad_design(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--designs", "bogus:2"])

    def test_sweep_rejects_duplicate_designs(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--designs", "accord:2,accord:2"])

    def test_sweep_labels_a_one_knob_sweep_by_spec(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--designs", "direct,pws:2:pip=0.6,pws:2:pip=0.8",
            "--workloads", "soplex", "--accesses", "3000", "-j", "1",
            "--results-dir", str(tmp_path / "store"), "--csv", str(csv_path),
        ]) == 0
        # speedups over the first design, whose label is unchanged
        assert "speedup over direct-1way" in capsys.readouterr().out
        series = {row["series"] for row in _csv_rows(csv_path)}
        assert series == {"pws:2:pip=0.6", "pws:2:pip=0.8"}

    def test_sweep_phase_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "phases.csv"
        assert main(self.ARGS + [
            "--results-dir", str(tmp_path / "store"),
            "--epoch-metrics", "500", "--phase-csv", str(csv_path),
        ]) == 0
        from repro.analysis.export import PHASE_CSV_COLUMNS

        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(PHASE_CSV_COLUMNS)
        assert len(lines) > 1

    def test_phase_csv_requires_epoch_metrics(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--phase-csv", "phases.csv"])

    def test_rejects_nonpositive_epoch_metrics(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--epoch-metrics", "0"])


class TestResilienceCli:
    ARGS = ["sweep", "--designs", "direct,accord:2",
            "--workloads", "soplex,libq", "--accesses", "3000"]

    def test_journal_written_by_default(self, tmp_path):
        assert main(self.ARGS + ["--results-dir", str(tmp_path)]) == 0
        assert (tmp_path / "sweep.journal.jsonl").exists()

    def test_no_journal_skips_writing(self, tmp_path):
        assert main(self.ARGS + ["--results-dir", str(tmp_path),
                                 "--no-journal"]) == 0
        assert not (tmp_path / "sweep.journal.jsonl").exists()

    def test_execution_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           f"os_error=9;dir={tmp_path / 'ledger'}")
        code = main(self.ARGS + ["--results-dir", str(tmp_path),
                                 "--retries", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "sweep failed" in err
        assert "--resume" in err  # points at the recovery path

    def test_retries_heal_transient_faults(self, monkeypatch, tmp_path,
                                           capsys):
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           f"os_error=2;dir={tmp_path / 'ledger'}")
        assert main(self.ARGS + ["--results-dir", str(tmp_path),
                                 "--retries", "3"]) == 0
        out = capsys.readouterr().out
        assert "4 simulated, 0 from cache" in out
        assert "transient retries" in out

    def test_malformed_fault_plan_exits_2(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "bogus=1")
        with pytest.raises(SystemExit) as info:
            main(self.ARGS)
        assert info.value.code == 2

    def test_rejects_bad_retries_and_timeout(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--retries", "-1"])
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--timeout", "0"])

    def test_resume_replays_journal(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        assert main(self.ARGS + ["--results-dir", str(tmp_path / "store"),
                                 "--journal", str(journal)]) == 0
        capsys.readouterr()
        # --no-store on the resume run proves the journal alone can
        # supply every result.
        assert main(self.ARGS + ["--no-store", "--journal", str(journal),
                                 "--resume"]) == 0
        captured = capsys.readouterr()
        assert "0 simulated, 0 from cache, 4 resumed from journal" \
            in captured.out
        assert "resuming: 4/4" in captured.err

    def test_resume_with_changed_sweep_exits_2(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert main(self.ARGS + ["--results-dir", str(tmp_path / "store"),
                                 "--journal", str(journal)]) == 0
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--designs", "direct", "--workloads",
                  "soplex,libq", "--accesses", "3000",
                  "--journal", str(journal), "--resume"])
        assert info.value.code == 2

    def test_resume_without_journal_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(self.ARGS + ["--journal", str(tmp_path / "ghost.jsonl"),
                              "--resume"])
        assert info.value.code == 2

    def test_resume_conflicts_with_no_journal(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--resume", "--no-journal"])


class TestProfileCli:
    def test_profile_prints_summary(self, capsys):
        assert main(["profile", "soplex", "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Trace profile: soplex" in out

    def test_profile_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["profile", "not_a_workload", "--accesses", "2000"])

    def test_profile_rejects_bad_accesses(self):
        with pytest.raises(SystemExit):
            main(["profile", "soplex", "--accesses", "0"])

    def test_profile_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            main(["profile", "soplex", "--accesses", "2000", "--scale", "2"])
