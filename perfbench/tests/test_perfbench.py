"""Self-test of the benchmark: every workload at a tiny size.

    python -m pytest perfbench/tests -q

Checks that each workload prints every declared end-to-end metric with
its unit and no failed operation, that the traced run prints every
declared per-layer metric, and that the benchmark refuses to run where
the simulator's sources are missing. Not part of the repository's
tier-1 suite (``testpaths`` there is ``tests/``): it spawns workers and
takes a minute or so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    return proc


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # fail_rate == 0
    assert result["correct"] is True
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_line(run_bench(workload, trace=0))
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = result_line(run_bench(workload, trace=1))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    fused_calls = metrics["sim.engines.multi.drive_fused.calls"]["value"]
    if workload == "paper-suite":
        assert fused_calls == 0
        warm = metrics["experiments.run.warm.calls"]["value"]
        assert warm == metrics["experiments.run.cold.calls"]["value"] >= 18
    if workload == "design-sweep":
        assert metrics["sim.engines.multi.configs_fused"]["value"] > 0
    if workload == "service-mix":
        assert metrics["service.scheduler.JobManager.submit.calls"]["value"] > 0


def test_declared_per_layer_matches_layers_module():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == layers.per_layer_metrics()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_and_import_bindings():
    recorder = spans.SpanRecorder()

    def child():
        return 1

    def parent():
        return wrapped_child() + 1

    wrapped_child = recorder.wrap(child, "child")
    assert recorder.wrap(parent, "parent")() == 2
    agg = recorder.aggregate()
    assert agg["parent"]["calls"] == agg["child"]["calls"] == 1
    assert agg["parent"]["self_s"] == pytest.approx(
        agg["parent"]["s"] - agg["child"]["s"]
    )

    import repro.exec.batching as batching
    import repro.sim.engines as engines

    original = engines.resolve_engine
    try:
        spans.install(recorder, [
            ("repro.sim.engines", "resolve_engine", "resolve", None),
        ])
        # The module-level `from ... import resolve_engine` binding in
        # exec.batching sees the wrapper too.
        assert batching.resolve_engine is engines.resolve_engine
        assert batching.resolve_engine.__wrapped__ is original
    finally:
        wrapper = engines.resolve_engine
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, key, original)
