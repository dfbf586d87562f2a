"""End-to-end checks that every example script runs and prints sane
output (small sizes via --accesses where supported)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=600):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--accesses", "30000")
        assert "hit rate" in out
        assert "ACCORD SRAM overhead: 320 bytes" in out

    def test_graph_analytics(self):
        out = run_example("graph_analytics_cache_study.py", "--accesses", "20000")
        assert "pr_twi" in out
        assert "ACCORD SWS(8,2)" in out

    def test_design_space(self):
        out = run_example("design_space_exploration.py", "--accesses", "15000",
                          "--workload", "libq")
        assert "best:" in out

    def test_mix_contention(self):
        out = run_example("mix_contention_study.py", "--accesses", "8000")
        assert "4 cores sharing one" in out
        for member in ("soplex", "libq", "mcf", "sphinx"):
            assert member in out
        assert "weighted speedup  ACCORD SWS(8,2):" in out

    def test_predictor_comparison_importable(self):
        # Full run is minutes; validate the module's table wiring only.
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "predictor_comparison", EXAMPLES / "predictor_comparison.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert len(module.PREDICTORS) == 8
        assert module.pretty_bytes(0) == "0"
        assert module.pretty_bytes(4 * 1024 * 1024) == "4MB"
        assert module.pretty_bytes(320) == "320B"
