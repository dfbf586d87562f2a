"""What the traced run wraps, and the per-layer metrics it derives.

Stdlib only: ``run.py`` imports this to assemble the result line
without importing the simulator.

Span names are the function's module path under ``repro`` plus its
qualified name, so ``repro.exec.store.ResultStore.get`` records spans
named ``exec.store.ResultStore.get``. Spans the benchmark opens itself
around its calls into a layer (the experiments' ``run`` and the service
client's ``submit``) carry the phase or request class as a suffix.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _lookup_hook(_args, _kwargs, result):
    return {"lookups": 1, "hits": 0 if result is None else 1}


def _drive_hook(args, _kwargs, _result):
    stream = args[2]
    return {"accesses": len(getattr(stream, "trace", stream))}


def _fused_hook(args, _kwargs, _result):
    runs, stream = args[0], args[1]
    return {
        "configs": len(runs),
        "accesses": len(runs) * len(getattr(stream, "trace", stream)),
    }


#: (module, qualname, hook) of every wrapped public entry point.
TARGETS = [
    ("repro.workloads.synthetic", "SyntheticWorkload.generate", None),
    ("repro.workloads.mixes", "build_mix_trace", None),
    ("repro.workloads.trace_cache", "TraceCache.get", _lookup_hook),
    ("repro.workloads.trace_cache", "TraceCache.put", None),
    ("repro.sim.trace", "Trace.split_columns", None),
    ("repro.core.accord", "make_design", None),
    ("repro.sim.system", "build_dram_cache", None),
    ("repro.sim.engines", "resolve_engine", None),
    ("repro.sim.engines.vector", "VectorEngine.drive", _drive_hook),
    ("repro.sim.engines.replay", "SparseReplayEngine.drive", _drive_hook),
    ("repro.sim.engines.stream", "StreamEngine.drive", _drive_hook),
    ("repro.sim.engines.loop", "PerAccessEngine.drive", _drive_hook),
    ("repro.sim.engines.multi", "drive_fused", _fused_hook),
    ("repro.sim.timing_model", "IntervalTimingModel.evaluate", None),
    ("repro.verify.digest", "result_digest", None),
    ("repro.exec.store", "ResultStore.get", _lookup_hook),
    ("repro.exec.store", "ResultStore.put", None),
    ("repro.exec.batching", "plan_batches", None),
    ("repro.exec.batching", "run_batch", None),
    ("repro.exec.jobs", "execute_job", None),
    ("repro.exec.executor", "Executor.run", None),
    ("repro.service.protocol", "read_request", None),
    ("repro.service.scheduler", "JobManager.submit", None),
]


def span_name(module: str, qualname: str) -> str:
    return f"{module[len('repro.'):]}.{qualname}"


def install_targets():
    """``spans.install`` arguments for :data:`TARGETS`."""
    return [
        (module, qualname, span_name(module, qualname), hook)
        for module, qualname, hook in TARGETS
    ]


#: Spans the benchmark opens around its own calls into a layer.
EXPERIMENT_SPANS = ["experiments.run.cold", "experiments.run.warm"]
CLIENT_SPANS = [
    "service.client.ServiceClient.submit.warm",
    "service.client.ServiceClient.submit.cold",
]

#: Spans whose wrapped children make ``self_s`` worth reporting.
SELF_TIME = {
    "workloads.mixes.build_mix_trace",
    "sim.system.build_dram_cache",
    "sim.engines.vector.VectorEngine.drive",
    "sim.engines.replay.SparseReplayEngine.drive",
    "sim.engines.stream.StreamEngine.drive",
    "sim.engines.loop.PerAccessEngine.drive",
    "sim.engines.multi.drive_fused",
    "exec.store.ResultStore.get",
    "exec.store.ResultStore.put",
    "exec.batching.run_batch",
    "exec.jobs.execute_job",
    "exec.executor.Executor.run",
    "service.scheduler.JobManager.submit",
    *EXPERIMENT_SPANS,
}

#: (metric, span) of derived engine throughputs.
ENGINE_RATES = [
    ("sim.engines.vector.maccess_per_s", "sim.engines.vector.VectorEngine.drive"),
    ("sim.engines.replay.maccess_per_s",
     "sim.engines.replay.SparseReplayEngine.drive"),
    ("sim.engines.stream.maccess_per_s", "sim.engines.stream.StreamEngine.drive"),
    ("sim.engines.loop.maccess_per_s", "sim.engines.loop.PerAccessEngine.drive"),
    ("sim.engines.multi.maccess_per_s", "sim.engines.multi.drive_fused"),
]

#: (metric, span) of derived lookup hit ratios.
HIT_RATIOS = [
    ("workloads.trace_cache.hit_ratio", "workloads.trace_cache.TraceCache.get"),
    ("exec.store.hit_ratio", "exec.store.ResultStore.get"),
]

#: Counters read from the daemon's ``/metrics`` after the load.
SERVICE_COUNTERS = ["executed", "completed", "failed", "deduped"]

TRACE_METRICS = [
    ("trace.overhead_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    metrics: List[Tuple[str, str, str]] = []
    spans = [span_name(m, q) for m, q, _ in TARGETS]
    spans[-2:-2] = CLIENT_SPANS
    spans += EXPERIMENT_SPANS
    for span in spans:
        metrics.append((f"{span}.calls", "count", "lower"))
        metrics.append((f"{span}.s", "s", "lower"))
        if span in SELF_TIME:
            metrics.append((f"{span}.self_s", "s", "lower"))
    metrics += [(name, "Macc/s", "higher") for name, _ in ENGINE_RATES]
    metrics.append(("sim.engines.multi.configs_fused", "count", "higher"))
    metrics += [(name, "ratio", "higher") for name, _ in HIT_RATIOS]
    metrics.append(("service.metrics.store_hit_ratio", "ratio", "higher"))
    metrics += [
        (f"service.metrics.{name}", "count", "lower")
        for name in SERVICE_COUNTERS
    ]
    metrics += TRACE_METRICS
    return metrics


def merge_aggregates(
    parts: List[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Sum per-span aggregates from several processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, values in part.items():
            bucket = merged.setdefault(name, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value
    return merged


def layer_values(
    agg: Dict[str, Dict[str, float]], service: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metric values (without the ``trace.*`` ones)."""
    values: Dict[str, float] = {}
    for name, _unit, _better in per_layer_metrics():
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and not name.startswith("trace."):
            values[name] = agg.get(span, {}).get(field, 0)
    for metric, span in ENGINE_RATES:
        entry = agg.get(span, {})
        seconds = entry.get("s", 0.0)
        values[metric] = (
            entry.get("accesses", 0) / seconds / 1e6 if seconds else 0.0
        )
    values["sim.engines.multi.configs_fused"] = agg.get(
        "sim.engines.multi.drive_fused", {}
    ).get("configs", 0)
    for metric, span in HIT_RATIOS:
        entry = agg.get(span, {})
        lookups = entry.get("lookups", 0)
        values[metric] = entry.get("hits", 0) / lookups if lookups else 0.0
    lookups = service.get("store_lookups", 0)
    values["service.metrics.store_hit_ratio"] = (
        service.get("store_hits", 0) / lookups if lookups else 0.0
    )
    for name in SERVICE_COUNTERS:
        values[f"service.metrics.{name}"] = service.get(name, 0)
    return values
