"""Deterministic job model for the sweep engine.

A :class:`JobKey` captures everything that determines one simulation's
outcome: the design, the workload name, and the scalar knobs feeding
trace generation and the timing model. Trace generation is seeded, so
any process that holds the same key rebuilds the same trace and the
same simulator — which is what lets results be executed on an arbitrary
worker process and memoized on disk, content-addressed by the key's
digest (:mod:`repro.exec.store`).

The cosmetic ``label`` field of :class:`AccordDesign` is excluded from
the canonical form: relabelling a design must not change its identity.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, fields
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.cache.replacement import REPLACEMENT_NAMES
from repro.core.accord import DCP_MODES, DESIGN_KINDS, AccordDesign
from repro.errors import ConfigError
from repro.params.system import GRID_SCALE, GRID_SEED, scaled_system
from repro.sim.runner import DEFAULT_WARMUP, TraceFactory
from repro.sim.system import RunResult

#: Bump whenever simulation semantics or the stored RunResult layout
#: change in a way that invalidates previously memoized results.
#: v2: access-event pipeline — RunResult carries optional phase-resolved
#: metrics and JobKey gained the ``epoch`` knob.
#: v3: randomized policies draw from per-set counter-based streams
#: (:class:`repro.utils.rng.SetLocalRng`) instead of one sequential
#: stream, so every random-policy result changed.
#: v4: stored results carry a ``payload_digest`` (sha256 over the
#: canonical stats + phases payload, :mod:`repro.verify.digest`) that
#: :meth:`ResultStore.get` verifies on read — older records lack it,
#: so they re-run rather than dodge the integrity check.
RESULT_SCHEMA_VERSION = 4

#: The :class:`AccordDesign` fields that name a result, in declaration
#: order (all scalars); ``label`` is cosmetic and left out.
_DESIGN_FIELDS = tuple(
    field.name for field in fields(AccordDesign) if field.name != "label"
)


#: The grid knobs a caller leaves out: ``JobKey``, ``Settings`` (every
#: experiment and ``repro sweep``), the service's job specs and the
#: ``profile`` command read the same constants, so one designs x
#: workloads grid names the same keys on every path. ``GRID_SEED`` and
#: ``GRID_SCALE`` live in :mod:`repro.params.system`, below ``exec``.
GRID_ACCESSES = 200_000
GRID_WARMUP = 0.5
#: The ``--quick`` grid: shorter traces over a four-workload suite.
QUICK_ACCESSES = 40_000
QUICK_SUITE = ("soplex", "libq", "mcf", "sphinx")


@dataclass(frozen=True)
class JobKey:
    """Names one (design, workload, knobs) simulation deterministically."""

    design: AccordDesign
    workload: str
    num_accesses: int
    warmup: float = DEFAULT_WARMUP
    seed: int = GRID_SEED
    scale: float = GRID_SCALE
    # None normalizes to ``scale``; cache-size sweeps pin it elsewhere.
    footprint_scale: Optional[float] = None
    # Demand reads per phase-metrics sample; None disables the observer.
    epoch: Optional[int] = None
    # Drive engine request. Excluded from canonical(): engines are
    # bit-identical, so the choice never forks the memo space — a result
    # computed under any engine satisfies the same key.
    engine: str = "auto"

    def __post_init__(self):
        if self.num_accesses <= 0:
            raise ConfigError("num_accesses must be positive")
        if not 0.0 <= self.warmup < 1.0:
            raise ConfigError("warmup fraction must be in [0, 1)")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigError(f"scale must be in (0, 1], got {self.scale}")
        if self.epoch is not None and self.epoch <= 0:
            raise ConfigError(f"epoch must be positive, got {self.epoch}")
        from repro.sim.engines import ENGINE_NAMES

        if self.engine not in ENGINE_NAMES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{', '.join(ENGINE_NAMES)}"
            )
        if self.footprint_scale is None:
            object.__setattr__(self, "footprint_scale", self.scale)

    def canonical(self) -> Dict[str, Any]:
        """JSON-safe dict of everything that determines the result.

        Built once per key and cached, as :meth:`digest` is; each call
        returns a fresh copy, so a caller may mutate it freely.
        """
        cached = self.__dict__.get("_canonical")
        if cached is None:
            design = self.design
            cached = {
                "schema": RESULT_SCHEMA_VERSION,
                "design": {
                    name: getattr(design, name) for name in _DESIGN_FIELDS
                },
                "workload": self.workload,
                "num_accesses": self.num_accesses,
                "warmup": self.warmup,
                "seed": self.seed,
                "scale": self.scale,
                "footprint_scale": self.footprint_scale,
                "epoch": self.epoch,
            }
            object.__setattr__(self, "_canonical", cached)
        return {**cached, "design": dict(cached["design"])}

    def digest(self) -> str:
        """Content address: SHA-256 over the canonical form (memoized)."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            payload = json.dumps(
                self.canonical(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode("ascii")).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def display(self) -> str:
        return f"{self.design.display_name} / {self.workload}"


# Per-process trace memo: workers (and the serial in-process path) reuse
# one TraceFactory per knob tuple so a workload's trace is generated once
# no matter how many designs replay it.
_FACTORY_CACHE: Dict[Tuple[float, int, int, float], TraceFactory] = {}
_FACTORY_CACHE_MAX = 4


def _trace_factory(key: JobKey) -> TraceFactory:
    cache_key = (key.scale, key.num_accesses, key.seed, key.footprint_scale)
    factory = _FACTORY_CACHE.get(cache_key)
    if factory is None:
        if len(_FACTORY_CACHE) >= _FACTORY_CACHE_MAX:
            _FACTORY_CACHE.pop(next(iter(_FACTORY_CACHE)))
        factory = TraceFactory(
            scaled_system(ways=1, scale=key.scale),
            key.num_accesses,
            key.seed,
            footprint_scale=key.footprint_scale,
        )
        _FACTORY_CACHE[cache_key] = factory
    return factory


def resolve_job_engine(key: JobKey) -> str:
    """The concrete engine name ``key``'s request resolves to right now.

    Resolves the request against a probe cache once per (design, scale,
    engine); a fallback warning fires here, at most once. The executor
    calls it in the parent before dispatching to a pool, because workers
    suppress warnings (warn-once state is per-process, so N workers
    would each print a copy). Shadow verification calls it to attribute
    a mismatch to the engine that produced the suspect result
    (``key.engine`` is usually just ``"auto"``), and must do so *before*
    tripping the breaker, which changes the resolution.
    """
    from repro.sim.engines import resolve_engine
    from repro.sim.system import build_dram_cache

    cache_key = (repr(key.design), key.scale, key.engine)
    name = _ENGINE_PLAN_CACHE.get(cache_key)
    if name is None:
        config = scaled_system(ways=key.design.ways, scale=key.scale)
        cache = build_dram_cache(key.design, config, seed=key.seed)
        name = resolve_engine(
            cache, requested=key.engine, design=key.design
        ).name
        _ENGINE_PLAN_CACHE[cache_key] = name
    return name


_ENGINE_PLAN_CACHE: Dict[Tuple[str, float, str], str] = {}


def clear_engine_plans() -> None:
    """Flush the per-process engine plan memo.

    The circuit breaker (:mod:`repro.verify.breaker`) calls this when
    it demotes an engine: the memo caches pre-trip resolutions, and a
    stale entry would keep routing jobs onto the engine that was just
    caught producing a wrong answer.
    """
    _ENGINE_PLAN_CACHE.clear()


def execute_job(key: JobKey) -> RunResult:
    """Run the simulation a key names, as a one-member batch.

    The public one-job entry point (shadow verification's reference
    re-runs use it): the same :func:`~repro.exec.batching.execute_batch`
    path, fault points and result assembly as every executor job.
    """
    from repro.exec.batching import BatchTask, execute_batch

    return execute_batch(BatchTask(jobs=(key,)))[0]


# Field coercions for ``key=value`` parts of a design spec string.
_SPEC_FIELD_TYPES = {
    "ways": int,
    "pip": float,
    "hashes": int,
    "rit_entries": int,
    "rlt_entries": int,
    "region_size": int,
    "replacement": str,
    "partial_tag_bits": int,
    "dcp": str,
    "label": str,
}


def parse_design_spec(spec: str) -> AccordDesign:
    """Parse a CLI design spec into an :class:`AccordDesign`.

    Grammar: ``kind[:ways[:hashes]][:key=value...]`` — e.g. ``direct``,
    ``accord:2``, ``sws:8:4``, ``pws:2:pip=0.9``. The bare ``hashes``
    position is only meaningful for ``sws``.
    """
    parts = [p.strip() for p in spec.strip().split(":") if p.strip()]
    if not parts:
        raise ConfigError(f"empty design spec {spec!r}")
    kind, rest = parts[0], parts[1:]
    if kind not in DESIGN_KINDS:
        raise ConfigError(
            f"unknown design kind {kind!r}; expected one of {', '.join(DESIGN_KINDS)}"
        )
    kwargs: Dict[str, Any] = {}
    positional = ("ways", "hashes") if kind == "sws" else ("ways",)
    for name in positional:
        if rest and "=" not in rest[0]:
            try:
                kwargs[name] = int(rest.pop(0))
            except ValueError as exc:
                raise ConfigError(f"bad {name} in design spec {spec!r}") from exc
    for part in rest:
        if "=" not in part:
            raise ConfigError(
                f"design spec {spec!r}: expected key=value, got {part!r}"
            )
        name, value = part.split("=", 1)
        coerce = _SPEC_FIELD_TYPES.get(name)
        if coerce is None:
            raise ConfigError(f"design spec {spec!r}: unknown field {name!r}")
        try:
            kwargs[name] = coerce(value)
        except ValueError as exc:
            raise ConfigError(f"design spec {spec!r}: bad value for {name}") from exc
    # Refuse unknown policy names here, before any sweep starts, instead
    # of letting the cache factories raise mid-run.
    for name, value, accepted in (
        ("replacement", kwargs.get("replacement", "random").lower(),
         REPLACEMENT_NAMES),
        ("dcp", kwargs.get("dcp", "exact"), DCP_MODES),
    ):
        if value not in accepted:
            raise ConfigError(
                f"design spec {spec!r}: unknown {name} {kwargs[name]!r}; expected "
                f"one of {', '.join(accepted)}"
            )
    return AccordDesign(kind=kind, **kwargs)


def parse_design_specs(
    specs: Sequence[str],
) -> Tuple[List[AccordDesign], List[str]]:
    """Parse a sweep's design specs into (designs, row labels).

    A design named twice — the same spec, or two spellings of one
    design — raises :class:`ConfigError`. Rows are labelled by
    ``display_name``, except that designs whose display names collide
    (a one-knob sweep such as ``pws:2:pip=0.6,pws:2:pip=0.8``) are
    labelled by their spec text. The CLI ``sweep`` and the service's
    job specs both call this, so their tables agree.
    """
    designs = [parse_design_spec(spec) for spec in specs]
    seen = set()
    for spec, design in zip(specs, designs):
        if design in seen:
            raise ConfigError(f"duplicate design {spec.strip()!r} in sweep")
        seen.add(design)
    names = Counter(design.display_name for design in designs)
    labels = [
        spec.strip() if names[design.display_name] > 1
        else design.display_name
        for spec, design in zip(specs, designs)
    ]
    return designs, labels


#: A matrix cell: a design at the grid's scale, or a (design, scale)
#: pair whose cache scale is its own (Table VIII's size sweep).
Cell = Union[AccordDesign, Tuple[AccordDesign, float]]


def job_grid(
    matrix: Mapping[str, Cell],
    workloads: Sequence[str],
    *,
    num_accesses: int,
    warmup: float,
    seed: int,
    scale: float,
    epoch: Optional[int],
    engine: str,
    footprint_scale: Optional[float] = None,
) -> Dict[str, List[JobKey]]:
    """label -> one key per workload, in matrix then workload order.

    The one place a designs x workloads grid becomes :class:`JobKey`
    objects: experiments, ``repro sweep`` and the service's
    :func:`~repro.service.jobspec.expand_spec` all call it.
    ``footprint_scale`` pins every trace's footprint (None: each key's
    own cache scale).
    """
    grid = {}
    for label, cell in matrix.items():
        design, cell_scale = cell if isinstance(cell, tuple) else (cell, scale)
        grid[label] = [
            JobKey(
                design=design,
                workload=workload,
                num_accesses=num_accesses,
                warmup=warmup,
                seed=seed,
                scale=cell_scale,
                footprint_scale=footprint_scale,
                epoch=epoch,
                engine=engine,
            )
            for workload in workloads
        ]
    return grid


def probe_strict_engines(keys: Iterable[JobKey]) -> None:
    """Fail fast under ``--engine-strict``, before any job is scheduled.

    Resolves each distinct (design, scale) engine request with the
    resolver the workers use, in strict mode, so a design the requested
    engine cannot drive exactly raises its
    :class:`~repro.errors.ReproError` here. ``auto`` requests always
    resolve and are skipped.
    """
    from repro.sim.engines import resolve_engine
    from repro.sim.system import build_dram_cache

    seen = set()
    for key in keys:
        probe = (key.design, key.scale, key.engine)
        if key.engine == "auto" or probe in seen:
            continue
        seen.add(probe)
        config = scaled_system(ways=key.design.ways, scale=key.scale)
        cache = build_dram_cache(key.design, config, seed=key.seed)
        resolve_engine(
            cache, requested=key.engine, strict=True, design=key.design
        )
