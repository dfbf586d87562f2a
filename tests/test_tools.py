"""Tests for the trace-generation and profiling CLI tools."""

import os

import pytest

from repro.sim.trace import load_trace
from repro.tools.make_traces import main as make_traces_main, make_traces
from repro.tools.profile_trace import histogram, main as profile_main


class TestMakeTraces:
    def test_generates_files(self, tmp_path):
        paths = make_traces(["sphinx"], str(tmp_path), num_accesses=2000)
        assert len(paths) == 1
        trace = load_trace(paths[0])
        assert len(trace) >= 2000
        assert trace.name == "sphinx"

    def test_mix_supported(self, tmp_path):
        paths = make_traces(["mix1"], str(tmp_path), num_accesses=2000)
        trace = load_trace(paths[0])
        assert trace.name == "mix1"

    def test_cli(self, tmp_path, capsys):
        out_dir = str(tmp_path / "t")
        assert make_traces_main(
            ["sphinx", "--out", out_dir, "--accesses", "1000"]
        ) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("sphinx.trace")
        assert os.path.exists(printed)


class TestProfileTrace:
    def test_cli_profiles(self, tmp_path, capsys):
        paths = make_traces(["libq"], str(tmp_path), num_accesses=3000)
        assert profile_main([paths[0], "--no-reuse"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out
        assert "run length" in out

    def test_cli_runs_histogram(self, tmp_path, capsys):
        paths = make_traces(["libq"], str(tmp_path), num_accesses=3000)
        assert profile_main([paths[0], "--no-reuse", "--runs-histogram"]) == 0
        out = capsys.readouterr().out
        assert "run-length distribution" in out


class TestHistogram:
    def test_bucketing(self):
        out = histogram([1, 1, 1, 9], bins=2, title="H")
        lines = out.splitlines()
        assert lines[0] == "H"
        assert lines[1].endswith("3")
        assert lines[2].endswith("1")

    def test_single_value(self):
        out = histogram([2.0, 2.0], bins=3)
        assert "2" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([])
        with pytest.raises(ValueError):
            histogram([1.0], bins=0)
