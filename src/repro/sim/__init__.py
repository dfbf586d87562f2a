"""Simulation engines: stats, traces, timing models, system glue.

Attribute access is lazy (PEP 562): ``repro.sim.system`` pulls in the
cache and core packages, while low-level modules like
``repro.sim.stats`` are imported *by* those packages — eager re-exports
here would create an import cycle.
"""

from repro.sim.phases import PhaseMetrics, PhaseSample, PhaseSeries
from repro.sim.stats import CacheStats
from repro.sim.trace import Trace, TraceRecord, trace_from_arrays

__all__ = [
    "CacheStats",
    "PhaseMetrics",
    "PhaseSample",
    "PhaseSeries",
    "Trace",
    "TraceRecord",
    "trace_from_arrays",
    "IntervalTimingModel",
    "TimingBreakdown",
    "RunResult",
    "Simulator",
    "build_dram_cache",
    "run_design",
    "run_suite",
    "geometric_mean",
    "TraceFactory",
    "MultiCoreSimulator",
    "profile_trace",
    "TraceProfile",
]

_LAZY = {
    "IntervalTimingModel": ("repro.sim.timing_model", "IntervalTimingModel"),
    "TimingBreakdown": ("repro.sim.timing_model", "TimingBreakdown"),
    "RunResult": ("repro.sim.system", "RunResult"),
    "Simulator": ("repro.sim.system", "Simulator"),
    "build_dram_cache": ("repro.sim.system", "build_dram_cache"),
    "run_design": ("repro.sim.runner", "run_design"),
    "run_suite": ("repro.sim.runner", "run_suite"),
    "geometric_mean": ("repro.sim.runner", "geometric_mean"),
    "TraceFactory": ("repro.sim.runner", "TraceFactory"),
    "MultiCoreSimulator": ("repro.sim.multicore", "MultiCoreSimulator"),
    "profile_trace": ("repro.sim.profile", "profile_trace"),
    "TraceProfile": ("repro.sim.profile", "TraceProfile"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
