"""JSON job specs: the service's request schema, expanded to JobKeys.

A spec names the same knobs the CLI ``sweep``/``run`` flags do, and is
expanded through the same code paths (:func:`parse_design_specs`,
:func:`~repro.exec.jobs.job_grid` and its ``GRID_*``/``QUICK_*``
defaults), so a served job is *the same job* — same
:class:`~repro.exec.JobKey`, same digest, same store slot — as its CLI
equivalent. That identity is what lets the scheduler
deduplicate concurrent submissions and answer warm requests straight
from the result store.

Spec grammar (JSON object)::

    {
      "kind": "sweep",              # or "run" (one design, one workload)
      "designs": ["direct", "accord:2"],   # or a comma-joined string
      "workloads": ["soplex", "libq"],     # optional; default suite
      "accesses": 40000,            # optional
      "seed": 7, "scale": 0.0078125, "warmup": 0.5,   # optional
      "epoch": 10000,               # optional: phase-resolved metrics
      "quick": true,                # optional: CLI --quick defaults
      "engine": "vector"            # optional: drive engine request
    }

The ``engine`` field requests a drive engine
(:mod:`repro.sim.engines`); results are engine-invariant, so the field
does not participate in :meth:`~repro.exec.JobKey.canonical` identity —
the same spec with a different engine deduplicates onto the same
store slot.

The client and server both call :func:`expand_spec`, so they agree on
the key set without exchanging digests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.accord import AccordDesign
from repro.errors import ConfigError, WorkloadError
from repro.exec.jobs import (
    GRID_ACCESSES,
    GRID_SCALE,
    GRID_SEED,
    GRID_WARMUP,
    QUICK_ACCESSES,
    QUICK_SUITE,
    RESULT_SCHEMA_VERSION,
    JobKey,
    job_grid,
    parse_design_specs,
)
from repro.workloads.spec import get_workload, is_mix, main_suite

SPEC_KINDS = ("sweep", "run")

_KNOWN_FIELDS = frozenset({
    "kind", "designs", "workloads", "accesses", "seed", "scale",
    "warmup", "epoch", "quick", "engine",
})


def _designs_from(
    spec: Dict[str, Any],
) -> Tuple[List[AccordDesign], List[str]]:
    raw = spec.get("designs")
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part.strip()]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("job spec needs a non-empty 'designs' list")
    try:
        return parse_design_specs([str(item) for item in raw])
    except ConfigError as exc:
        raise ConfigError(f"job spec: {exc}") from exc


def _workloads_from(spec: Dict[str, Any], quick: bool) -> List[str]:
    raw = spec.get("workloads")
    if raw is None:
        return list(QUICK_SUITE) if quick else main_suite()
    if isinstance(raw, str):
        raw = [part.strip() for part in raw.split(",") if part.strip()]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("job spec: 'workloads' must be a non-empty list")
    names = [str(name) for name in raw]
    for name in names:
        if is_mix(name):
            continue
        try:
            get_workload(name)
        except WorkloadError as exc:
            raise ConfigError(f"job spec: {exc}") from exc
    if len(set(names)) != len(names):
        raise ConfigError("job spec: duplicate workloads")
    return names


def _number(
    spec: Dict[str, Any], name: str, default, kind=float
):
    value = spec.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"job spec: {name!r} must be a number")
    return kind(value)


def expand_spec(
    spec: Any,
) -> Tuple[List[JobKey], List[str], List[str]]:
    """Expand one job spec into its (keys, design labels, workloads).

    Raises :class:`ConfigError` on anything malformed — the service
    maps that to HTTP 400 / exit code 2, same as the CLI's argparse
    rejection. The returned keys enumerate the designs × workloads
    grid in the same order the CLI ``sweep`` builds it.
    """
    if not isinstance(spec, dict):
        raise ConfigError("job spec must be a JSON object")
    unknown = set(spec) - _KNOWN_FIELDS
    if unknown:
        raise ConfigError(
            f"job spec: unknown field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(_KNOWN_FIELDS)}"
        )
    kind = str(spec.get("kind", "sweep"))
    if kind not in SPEC_KINDS:
        raise ConfigError(
            f"job spec: unknown kind {kind!r}; expected one of {SPEC_KINDS}"
        )
    quick = bool(spec.get("quick", False))
    designs, labels = _designs_from(spec)
    workloads = _workloads_from(spec, quick)
    if kind == "run" and (len(designs) != 1 or len(workloads) != 1):
        raise ConfigError(
            "job spec: kind 'run' takes exactly one design and one workload"
        )
    accesses = _number(
        spec, "accesses", QUICK_ACCESSES if quick else GRID_ACCESSES, int,
    )
    seed = _number(spec, "seed", GRID_SEED, int)
    scale = _number(spec, "scale", GRID_SCALE, float)
    warmup = _number(spec, "warmup", GRID_WARMUP, float)
    epoch: Optional[int] = None
    if spec.get("epoch") is not None:
        epoch = _number(spec, "epoch", None, int)
    engine = spec.get("engine", "auto")
    if not isinstance(engine, str):
        raise ConfigError("job spec: 'engine' must be a string")
    from repro.sim.engines import ENGINE_NAMES

    if engine not in ENGINE_NAMES:
        raise ConfigError(
            f"job spec: unknown engine {engine!r}; "
            f"expected one of {ENGINE_NAMES}"
        )
    grid = job_grid(
        dict(zip(labels, designs)), workloads,
        num_accesses=accesses, warmup=warmup, seed=seed, scale=scale,
        epoch=epoch, engine=engine,
    )
    return [key for keys in grid.values() for key in keys], labels, workloads


def key_from_canonical(data: Dict[str, Any]) -> JobKey:
    """Rebuild a :class:`JobKey` from its :meth:`JobKey.canonical` dict.

    Used to resume journaled in-flight sweeps after a daemon restart:
    the service journals each batch's canonical keys, which survive the
    process. A canonical form from a different schema version raises
    :class:`ConfigError` — those results would no longer be valid, so
    the stale journal is dropped rather than replayed.
    """
    if not isinstance(data, dict):
        raise ConfigError("canonical job key must be a JSON object")
    if data.get("schema") != RESULT_SCHEMA_VERSION:
        raise ConfigError(
            f"canonical job key has schema {data.get('schema')!r}; "
            f"current is {RESULT_SCHEMA_VERSION}"
        )
    try:
        design = AccordDesign(**dict(data["design"]))
        return JobKey(
            design=design,
            workload=str(data["workload"]),
            num_accesses=int(data["num_accesses"]),
            warmup=float(data["warmup"]),
            seed=int(data["seed"]),
            scale=float(data["scale"]),
            footprint_scale=float(data["footprint_scale"]),
            epoch=(
                int(data["epoch"]) if data.get("epoch") is not None else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed canonical job key: {exc}") from exc


__all__ = [
    "SPEC_KINDS",
    "expand_spec",
    "key_from_canonical",
]
