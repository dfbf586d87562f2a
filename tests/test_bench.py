"""Tests for the hot-loop throughput benchmark and its CLI."""

import json

import pytest

from repro.__main__ import main
from repro.core.accord import AccordDesign
from repro.errors import ReproError
from repro.sim.bench import (
    BENCH_DESIGNS,
    compare_hit_rates,
    compare_to_baseline,
    format_report,
    load_report,
    run_bench,
    save_report,
)

TINY = dict(num_accesses=800, scale=1.0 / 2048.0, repeats=1)


def tiny_report(designs=(AccordDesign(kind="direct", ways=1),)):
    return run_bench(designs=designs, **TINY)


class TestRunBench:
    def test_report_shape(self):
        designs = (
            AccordDesign(kind="direct", ways=1),
            AccordDesign(kind="accord", ways=2),
            AccordDesign(kind="ca", ways=1),
        )
        report = tiny_report(designs)
        assert report["schema"] == 1
        assert report["num_accesses"] == 800
        assert [row["design"] for row in report["designs"]] == [
            d.display_name for d in designs
        ]
        for row in report["designs"]:
            assert row["accesses_per_sec"] > 0
            assert row["elapsed_sec"] > 0
            assert 0.0 <= row["hit_rate"] <= 1.0
            assert len(row["result_digest"]) == 64
        assert report["aggregate_accesses_per_sec"] > 0

    def test_design_set_covers_every_kind(self):
        from repro.core.accord import DESIGN_KINDS

        assert {d.kind for d in BENCH_DESIGNS} == set(DESIGN_KINDS)

    def test_rejects_zero_repeats(self):
        with pytest.raises(ReproError, match="repeat"):
            run_bench(repeats=0)

    def test_format_report_lists_designs(self):
        report = tiny_report()
        text = format_report(report)
        assert "direct-1way" in text
        assert "aggregate:" in text


class TestReportIo:
    def test_save_load_roundtrip(self, tmp_path):
        report = tiny_report()
        path = str(tmp_path / "bench.json")
        save_report(report, path)
        assert load_report(path) == report

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_report(str(tmp_path / "absent.json"))

    def test_load_rejects_non_report_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"unrelated": True}))
        with pytest.raises(ReproError, match="not a bench report"):
            load_report(str(path))


class TestCompareToBaseline:
    def _report(self, aggregate):
        return {"aggregate_accesses_per_sec": aggregate}

    def test_within_tolerance_passes(self):
        assert compare_to_baseline(
            self._report(80_000), self._report(100_000), 0.30
        ) is None

    def test_improvement_passes(self):
        assert compare_to_baseline(
            self._report(150_000), self._report(100_000), 0.30
        ) is None

    def test_regression_beyond_tolerance_fails(self):
        message = compare_to_baseline(
            self._report(60_000), self._report(100_000), 0.30
        )
        assert message is not None
        assert "regressed" in message

    def _engine_report(self, aggregate, per_engine):
        return {
            "aggregate_accesses_per_sec": aggregate,
            "per_engine_accesses_per_sec": per_engine,
        }

    def test_engine_regression_cannot_hide_behind_the_total(self):
        """A replay-path collapse masked by a vector gain in the mixed
        total must still fail: each engine bucket is gated."""
        baseline = self._engine_report(
            100_000, {"vector": 500_000, "replay": 60_000}
        )
        current = self._engine_report(
            120_000, {"vector": 900_000, "replay": 20_000}
        )
        message = compare_to_baseline(current, baseline, 0.30)
        assert message is not None
        assert "replay-engine" in message

    def test_engine_buckets_within_tolerance_pass(self):
        baseline = self._engine_report(
            100_000, {"vector": 500_000, "replay": 60_000}
        )
        current = self._engine_report(
            101_000, {"vector": 510_000, "replay": 55_000}
        )
        assert compare_to_baseline(current, baseline, 0.30) is None

    def test_engine_coverage_moves_are_judged_by_the_total(self):
        """An engine present on one side only (coverage moved down or
        up the chain) does not fail by itself."""
        baseline = self._engine_report(100_000, {"stream": 90_000})
        current = self._engine_report(110_000, {"replay": 400_000})
        assert compare_to_baseline(current, baseline, 0.30) is None

    def test_reports_without_sub_aggregates_still_compare(self):
        """Pre-sub-aggregate baselines (older schema) stay valid."""
        assert compare_to_baseline(
            self._engine_report(100_000, {"vector": 1}),
            self._report(100_000),
            0.30,
        ) is None


class TestCompareHitRates:
    """The engine-parity gate behind ``--check-hit-rates``."""

    @staticmethod
    def _report(hit_rate=0.5, digest="a" * 64):
        row = {"design": "pws-2way", "hit_rate": hit_rate}
        if digest is not None:
            row["result_digest"] = digest
        return {"designs": [row]}

    def test_matching_rows_pass(self):
        assert compare_hit_rates(self._report(), self._report()) is None

    def test_digest_mismatch_fails_at_equal_hit_rate(self):
        """A divergence in prediction, probes or writebacks leaves the
        hit rate alone; the digest still catches it."""
        verdict = compare_hit_rates(
            self._report(digest="b" * 64), self._report()
        )
        assert verdict is not None and "result digest" in verdict

    def test_hit_rate_mismatch_fails(self):
        verdict = compare_hit_rates(self._report(0.25), self._report())
        assert verdict is not None and "hit rate" in verdict

    def test_baseline_row_without_digest_compares_hit_rate(self):
        """Reports written before digests were recorded stay valid."""
        assert compare_hit_rates(
            self._report(digest="b" * 64), self._report(digest=None)
        ) is None
        assert compare_hit_rates(
            self._report(0.25), self._report(digest=None)
        ) is not None


class TestBenchCli:
    ARGS = ["bench", "--accesses", "800", "--scale", str(1.0 / 2048.0),
            "--repeats", "1"]

    def test_bench_prints_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "direct-1way" in out
        assert "aggregate:" in out

    def test_bench_json_and_passing_baseline(self, capsys, tmp_path):
        path = str(tmp_path / "bench.json")
        assert main(self.ARGS + ["--json", path]) == 0
        report = load_report(path)
        assert report["num_accesses"] == 800
        assert set(report["per_engine_accesses_per_sec"]) == {
            row["engine"] for row in report["designs"]
        }
        # A re-run against its own report passes the gate; the wide
        # tolerance keeps the 800-access timing (noisy under a loaded
        # test runner, and gated per engine bucket) out of the check —
        # this exercises the CLI plumbing, not the floor itself.
        assert main(self.ARGS + ["--baseline", path,
                                 "--max-regression", "0.95"]) == 0
        out = capsys.readouterr().out
        assert "baseline check OK" in out

    def test_bench_failing_baseline(self, capsys, tmp_path):
        path = str(tmp_path / "fast.json")
        report = tiny_report()
        report["aggregate_accesses_per_sec"] *= 100.0
        save_report(report, path)
        assert main(self.ARGS + ["--baseline", path]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_bench_unreadable_baseline(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        assert main(self.ARGS + ["--baseline", missing]) == 2

    @pytest.mark.parametrize(
        "bad",
        [["--accesses", "0"], ["--scale", "2.0"], ["--max-regression", "1.5"]],
        ids=["accesses", "scale", "max-regression"],
    )
    def test_bench_rejects_bad_arguments(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"] + bad)
        assert excinfo.value.code == 2
