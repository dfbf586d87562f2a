"""Pluggable drive engines and the capability-based resolver.

Four engines implement the :class:`~repro.sim.engines.base.Engine`
contract, ordered fastest-first:

* ``vector`` — whole-trace numpy kernel; deterministic set-local
  designs only (every policy declares ``vectorizable``, plus the
  structural checks in :mod:`repro.sim.engines.vector`), including
  all four replacement policies.
* ``replay`` — vectorized precompute around a fused scalar replay of
  the sparse global-state events; the GWS/ACCORD/SWS/dueling stacks
  under every DCP mode (exact, finite, none) and the
  column-associative cache (``replay_vectorizable`` capability plus
  the structural checks in :mod:`repro.sim.engines.replay`).
* ``stream`` — the access path's per-access ``read_split`` /
  ``writeback_split`` over pre-split columns; any cache with an access
  path. ``auto`` reaches it only for policy stacks neither kernel
  models: GWS over LRU/NRU/RRIP replacement, and the finite DCP under
  a non-GWS stack (e.g. ``pws:2:dcp=finite``).
* ``loop`` — the per-address reference loop; every cache.

:func:`resolve_engine` replaces the old scattered ``hasattr`` probes:
``auto`` silently picks the fastest supported engine; an explicitly
requested engine that cannot drive the cache falls down the same chain
with a one-time warning, or raises under ``strict``. All engines are
bit-identical where they overlap, so the choice never changes results —
which is why
:class:`~repro.exec.jobs.JobKey` excludes the engine from its canonical
identity.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from typing import Optional, Tuple

from repro.core.protocols import unreplayable_roles, unvectorizable_roles
from repro.errors import SimulationError
from repro.sim.engines.base import Engine, Segment, TraceStream, serial_segments
from repro.verify.breaker import is_tripped
from repro.sim.engines.loop import PerAccessEngine
from repro.sim.engines.replay import SparseReplayEngine
from repro.sim.engines.stream import StreamEngine
from repro.sim.engines.vector import VectorEngine

#: Accepted ``--engine`` values, resolver preference order after "auto".
ENGINE_NAMES: Tuple[str, ...] = ("auto", "vector", "replay", "stream", "loop")

ENGINES = {
    "vector": VectorEngine(),
    "replay": SparseReplayEngine(),
    "stream": StreamEngine(),
    "loop": PerAccessEngine(),
}

#: Fallback chain: an unsupported explicit request degrades in this
#: order until an engine supports the cache (loop always does).
_CHAIN = ("vector", "replay", "stream", "loop")

_ENGINE_FALLBACK_WARNED: set = set()

#: Environment marker set in every job-pool worker so fallback and
#: breaker warnings print once, in the parent.
WORKER_ENV = "REPRO_POOL_WORKER"


def in_worker_process() -> bool:
    """True when running inside a worker process.

    Detects both daemonic children (``multiprocessing.Pool`` style) and
    non-daemonic ``ProcessPoolExecutor`` workers, which advertise
    themselves through the :data:`WORKER_ENV` marker set by
    :func:`mark_worker_process` at pool start.
    """
    if os.environ.get(WORKER_ENV) == "1":
        return True
    return bool(getattr(multiprocessing.current_process(), "daemon", False))


def mark_worker_process() -> None:
    """Pool initializer: brand this process as a worker (see above)."""
    os.environ[WORKER_ENV] = "1"


def warn_engine_fallback(design, cache, requested: str, fallback: str) -> None:
    """One-time warning that an explicit engine request was downgraded.

    Inside job-pool workers the warning is suppressed entirely:
    warn-once state is per-process, so N workers would each print their
    own copy. The parent resolves (and warns) once before dispatch —
    see :func:`repro.exec.jobs.resolve_job_engine`.
    """
    if requested == "vector":
        roles = tuple(unvectorizable_roles(cache)) or ("cache",)
    elif requested == "replay":
        roles = tuple(unreplayable_roles(cache)) or ("cache",)
    else:
        roles = ("cache",)
    if design is not None:
        key = (requested, design.kind, design.ways, design.hashes, roles)
        label = design.label or design.kind
    else:
        key = (requested, type(cache).__name__, roles)
        label = type(cache).__name__
    if key in _ENGINE_FALLBACK_WARNED:
        return
    _ENGINE_FALLBACK_WARNED.add(key)
    if in_worker_process():
        return
    warnings.warn(
        f"design {label!r} has non-vectorizable policy state "
        f"({', '.join(roles)}); --engine {requested} ignored, running "
        f"{fallback} (results stay exact)",
        RuntimeWarning,
        stacklevel=3,
    )


def _warn_breaker_fallback(design, cache, requested: str, fallback: str) -> None:
    """One-time warning that a request hit a circuit-broken engine."""
    key = ("breaker", requested, fallback)
    if key in _ENGINE_FALLBACK_WARNED:
        return
    _ENGINE_FALLBACK_WARNED.add(key)
    if in_worker_process():
        return
    warnings.warn(
        f"--engine {requested} is circuit-broken after a verification "
        f"mismatch; running {fallback} instead (results stay exact)",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_engine(
    cache,
    requested: str = "auto",
    strict: bool = False,
    design=None,
) -> Engine:
    """Pick the engine that drives ``cache``, honoring the request.

    ``auto`` returns the fastest supported engine, silently. An explicit
    request is honored when supported; otherwise ``strict`` raises
    :class:`SimulationError`, and the default falls down the chain
    (vector → replay → stream → loop) with a one-time
    :func:`warn_engine_fallback` warning.

    Engines demoted by the verification circuit breaker
    (:mod:`repro.verify.breaker`) are skipped everywhere: ``auto``
    silently resolves past them, and an explicit request for a tripped
    engine degrades down the chain with a one-time warning (or raises
    under ``strict``) — the sweep finishes on a trusted engine.
    """
    if requested not in ENGINE_NAMES:
        raise SimulationError(
            f"unknown engine {requested!r}; expected one of {ENGINE_NAMES}"
        )
    if requested == "auto":
        return ENGINES[_first_trusted(cache, _CHAIN) or "loop"]
    tripped = is_tripped(requested)
    engine = ENGINES[requested]
    if not tripped and engine.supports(cache):
        return engine
    if strict:
        if tripped:
            raise SimulationError(
                f"engine {requested!r} is circuit-broken after a "
                f"verification mismatch (--engine-strict); use --engine "
                f"auto to fall back"
            )
        label = design.label or design.kind if design is not None else type(cache).__name__
        raise SimulationError(
            f"engine {requested!r} cannot drive design {label!r} exactly "
            f"(--engine-strict); use --engine auto to fall back"
        )
    fallback = _first_trusted(cache, _CHAIN[_CHAIN.index(requested) + 1:])
    if fallback is None:
        return ENGINES["loop"]
    warn = _warn_breaker_fallback if tripped else warn_engine_fallback
    warn(design, cache, requested, fallback)
    return ENGINES[fallback]


def _first_trusted(cache, names) -> Optional[str]:
    """The first of ``names`` not circuit-broken that supports ``cache``."""
    for name in names:
        if not is_tripped(name) and ENGINES[name].supports(cache):
            return name
    return None


__all__ = [
    "ENGINES",
    "ENGINE_NAMES",
    "Engine",
    "PerAccessEngine",
    "Segment",
    "SparseReplayEngine",
    "StreamEngine",
    "TraceStream",
    "VectorEngine",
    "WORKER_ENV",
    "in_worker_process",
    "mark_worker_process",
    "resolve_engine",
    "serial_segments",
    "warn_engine_fallback",
]
