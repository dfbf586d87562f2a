"""Figure 6: PIP's impact on the cyclic-reference kernel (a,b)^N.

Two independent evaluations of the same model:

* *analytic* — exact Markov-chain expectation
  (:func:`repro.analysis.analytic.cyclic_pws_hit_rate`);
* *simulated* — the actual 2-way PWS cache replaying the kernel trace,
  averaged over trials; every PIP's trials at one N run as one fused
  pass (:func:`repro.sim.engines.multi.drive_fused`).

The simulated rates are a pure function of the kernel, the PIPs and the
trial count, so :func:`run` memoizes them in the shared trace cache
(:mod:`repro.workloads.trace_cache`), one entry per N under a
:class:`CyclicKey`: a warm run reads seven entries and simulates
nothing. ``REPRO_TRACE_CACHE=0`` turns the memo off.

Expected shape: PIP=50% (unbiased) learns to use both ways fastest;
PIP=80% stays close; PIP=90% learns slowly but converges with enough
reuse; a direct-mapped cache (PIP=100%) stays at 0%.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, List, Optional, Sequence, Tuple

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
from repro.workloads.trace_cache import TRACE_SCHEMA_VERSION, shared_trace_cache

PIPS = (0.5, 0.7, 0.8, 0.9)
ITERATIONS = (2, 4, 8, 16, 32, 64, 128)
_KERNEL_CAPACITY = 1 << 20  # a small cache is enough for a 2-line kernel
_WAYS = 2


@dataclass(frozen=True)
class CyclicKey:
    """Everything that determines Figure 6's simulated rates at one N.

    The trace-cache entry's payload is the (a,b)^N kernel trace; its
    sidecar ``meta`` carries the per-PIP simulated hit rates and a
    sha256 over them (:func:`_parse_rates` checks both).
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


def _rates_digest(rates: Sequence[float]) -> str:
    payload = json.dumps(list(rates), separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _parse_rates(count: int, meta: Any) -> List[float]:
    """A cached entry's hit rates; ValueError if malformed or tampered."""
    if not isinstance(meta, dict) or set(meta) != {"hit_rates", "sha256"}:
        raise ValueError(f"expected Figure 6 hit rates, got {meta!r}")
    rates = meta["hit_rates"]
    if not (
        isinstance(rates, list) and len(rates) == count
        and all(type(rate) is float and 0.0 <= rate <= 1.0 for rate in rates)
    ):
        raise ValueError(f"bad hit rates {rates!r}")
    recomputed = _rates_digest(rates)
    if meta["sha256"] != recomputed:
        raise ValueError(
            f"hit-rate digest mismatch (stored {meta['sha256']!r}, "
            f"recomputed {recomputed})"
        )
    return rates


def _kernel_trace(iterations: int) -> Trace:
    addresses = same_preferred_conflicting_addresses(
        _KERNEL_CAPACITY, ways=_WAYS, count=2
    )
    return cyclic_trace(addresses, iterations)


def simulated_hit_rates(
    pips: Sequence[float], iterations: int, trials: int = 32
) -> List[float]:
    """Replay (a,b)^N against real 2-way PWS caches; one average per PIP.

    Trial ``t`` of each PIP is a fresh cache seeded ``t + 1``. All
    ``len(pips) * trials`` caches run in one fused pass, and each
    average sums its trials' hit rates in trial order, exactly as
    reading the trace into each cache one address at a time would.
    Always simulates; :func:`cached_hit_rates` is the memoized form.
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
    return [
        sum(stats.hit_rate for stats, _phases in results[i:i + trials]) / trials
        for i in range(0, len(results), trials)
    ]


def simulated_hit_rate(pip: float, iterations: int, trials: int = 32) -> float:
    """Replay (a,b)^N against a real 2-way PWS cache, averaged."""
    return simulated_hit_rates((pip,), iterations, trials)[0]


def cached_hit_rates(
    pips: Sequence[float], iterations: int, trials: int = 32
) -> List[float]:
    """:func:`simulated_hit_rates`, memoized in the shared trace cache.

    Returns the same floats. A warm call reads one entry and simulates
    nothing; an entry whose rates fail their sha256 is quarantined and
    recomputed. ``REPRO_TRACE_CACHE=0`` turns the memo off.
    """
    key = CyclicKey(_KERNEL_CAPACITY, _WAYS, tuple(pips), iterations, trials)
    disk = shared_trace_cache()
    if disk is not None:
        entry = disk.get_with_meta(key, partial(_parse_rates, len(key.pips)))
        if entry is not None:
            return entry[1]
    rates = simulated_hit_rates(pips, iterations, trials)
    if disk is not None:
        disk.put(key, _kernel_trace(iterations),
                 meta={"hit_rates": rates, "sha256": _rates_digest(rates)})
    return rates


def run(settings: Optional[Settings] = None, trials: int = 32) -> str:
    rows = []
    for n in ITERATIONS:
        row = [str(n)]
        simulated = cached_hit_rates(PIPS, n, trials=trials)
        for pip, rate in zip(PIPS, simulated):
            row.append(f"{cyclic_pws_hit_rate(pip, n):.3f}/{rate:.3f}")
        rows.append(row)
    return format_table(
        ["iterations N"] + [f"PIP={int(p * 100)}% (ana/sim)" for p in PIPS],
        rows,
        title="Figure 6: cyclic kernel hit-rate vs N (analytic / simulated)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
