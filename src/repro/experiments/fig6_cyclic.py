"""Figure 6: PIP's impact on the cyclic-reference kernel (a,b)^N.

Two independent evaluations of the same model:

* *analytic* — exact Markov-chain expectation
  (:func:`repro.analysis.analytic.cyclic_pws_hit_rate`);
* *simulated* — the actual 2-way PWS cache replaying the kernel trace,
  averaged over trials; every PIP's trials at one N run as one fused
  pass (:func:`repro.sim.engines.multi.drive_fused`).

Both are pure functions of the kernel, the PIPs and the trial count,
so :func:`run` memoizes them in the shared trace cache
(:mod:`repro.workloads.trace_cache`), one entry per N under a
:class:`CyclicKey`: a warm run reads seven key sidecars, simulates
nothing, runs no chain and opens no trace payload.
``REPRO_TRACE_CACHE=0`` turns the memo off.

Expected shape: PIP=50% (unbiased) learns to use both ways fastest;
PIP=80% stays close; PIP=90% learns slowly but converges with enough
reuse; a direct-mapped cache (PIP=100%) stays at 0%.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.analysis.analytic import cyclic_pws_hit_rate
from repro.cache.geometry import CacheGeometry
from repro.core.accord import AccordDesign, make_design
from repro.exec.jobs import RESULT_SCHEMA_VERSION
from repro.experiments.common import Settings, parse_args
from repro.sim.engines.base import TraceStream, serial_segments
from repro.sim.engines.multi import FusedRun, drive_fused, fusion_plan
from repro.sim.trace import Trace
from repro.utils.tables import format_table
from repro.workloads.cyclic import cyclic_trace, same_preferred_conflicting_addresses
from repro.workloads.trace_cache import (
    TRACE_SCHEMA_VERSION,
    digested_floats,
    parse_digested_floats,
    shared_trace_cache,
)

PIPS = (0.5, 0.7, 0.8, 0.9)
ITERATIONS = (2, 4, 8, 16, 32, 64, 128)
_KERNEL_CAPACITY = 1 << 20  # a small cache is enough for a 2-line kernel
_WAYS = 2


@dataclass(frozen=True)
class CyclicKey:
    """Everything that determines Figure 6's simulated rates at one N.

    The trace-cache entry's payload is the (a,b)^N kernel trace; its
    sidecar ``meta`` carries the per-PIP simulated (``hit_rates``) and
    analytic (``analytic_rates``) hit rates and one sha256 over them
    (:func:`~repro.workloads.trace_cache.parse_digested_floats` checks
    all three).
    """

    capacity_bytes: int
    ways: int
    pips: Tuple[float, ...]
    iterations: int
    trials: int

    def canonical(self) -> str:
        """Deterministic JSON form of the key (hashed for the address)."""
        payload = {
            # `repro audit` quarantines trace-cache keys of any other schema.
            "schema": TRACE_SCHEMA_VERSION,
            # Simulation semantics: a change invalidates the stored rates.
            "results": RESULT_SCHEMA_VERSION,
            "experiment": "fig6_cyclic",
            "capacity_bytes": self.capacity_bytes,
            "ways": self.ways,
            "pips": [repr(float(pip)) for pip in self.pips],
            "iterations": self.iterations,
            "trials": self.trials,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()


def _kernel_trace(iterations: int) -> Trace:
    addresses = same_preferred_conflicting_addresses(
        _KERNEL_CAPACITY, ways=_WAYS, count=2
    )
    return cyclic_trace(addresses, iterations)


def trial_hit_rates(
    pips: Sequence[float], iterations: int, trials: int = 32
) -> List[List[float]]:
    """Replay (a,b)^N against real 2-way PWS caches; per PIP, each
    trial's hit rate in trial order.

    Trial ``t`` of each PIP is a fresh cache seeded ``t + 1``. All
    ``len(pips) * trials`` caches run in one fused pass, exactly as
    reading the trace into each cache one address at a time would.
    """
    trace = _kernel_trace(iterations)
    geometry = CacheGeometry(_KERNEL_CAPACITY, _WAYS)
    segments = serial_segments(trace, 0, None)
    runs = []
    for pip in pips:
        for trial in range(trials):
            cache = make_design(
                AccordDesign(kind="pws", ways=_WAYS, pip=pip), geometry,
                seed=trial + 1,
            )
            runs.append(FusedRun(fusion_plan(cache), 0, segments, None))
    results = drive_fused(runs, TraceStream(trace, geometry), geometry)
    rates = [stats.hit_rate for stats, _phases in results]
    return [rates[i:i + trials] for i in range(0, len(rates), trials)]


def simulated_hit_rates(
    pips: Sequence[float], iterations: int, trials: int = 32
) -> List[float]:
    """Per PIP, the mean of :func:`trial_hit_rates`, summed in trial
    order. Always simulates; :func:`cached_rates` is the memoized form.
    """
    return [
        sum(rates) / trials
        for rates in trial_hit_rates(pips, iterations, trials)
    ]


def cached_rates(
    pips: Sequence[float], iterations: int, trials: int = 32
) -> Tuple[List[float], List[float]]:
    """Per-PIP (analytic, simulated) hit rates at one N, memoized.

    The simulated rates equal :func:`simulated_hit_rates`, the analytic
    ones :func:`~repro.analysis.analytic.cyclic_pws_hit_rate`. A warm
    call reads one key sidecar and neither simulates nor runs a chain
    (the rates carry their own sha256, so the kernel trace payload is
    not opened). An entry whose rates are missing or fail their sha256
    is quarantined, and both lists are recomputed and stored again.
    ``REPRO_TRACE_CACHE=0`` turns the memo off.
    """
    key = CyclicKey(_KERNEL_CAPACITY, _WAYS, tuple(pips), iterations, trials)
    disk = shared_trace_cache()
    if disk is not None:
        rates = disk.get_meta(key, partial(_parse_rates, len(key.pips)))
        if rates is not None:
            return rates
    analytic = [cyclic_pws_hit_rate(pip, iterations) for pip in pips]
    simulated = simulated_hit_rates(pips, iterations, trials)
    if disk is not None:
        disk.put(key, _kernel_trace(iterations), meta=digested_floats(
            "hit_rates", simulated, analytic_rates=analytic,
        ))
    return analytic, simulated


def _parse_rates(count: int, meta) -> Tuple[List[float], List[float]]:
    flat = parse_digested_floats("hit_rates", count, meta, "analytic_rates")
    return flat[count:], flat[:count]


def run(settings: Optional[Settings] = None, trials: int = 32) -> str:
    rows = []
    for n in ITERATIONS:
        analytic, simulated = cached_rates(PIPS, n, trials=trials)
        rows.append([str(n)] + [
            f"{ana:.3f}/{sim:.3f}" for ana, sim in zip(analytic, simulated)
        ])
    return format_table(
        ["iterations N"] + [f"PIP={int(p * 100)}% (ana/sim)" for p in PIPS],
        rows,
        title="Figure 6: cyclic kernel hit-rate vs N (analytic / simulated)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
