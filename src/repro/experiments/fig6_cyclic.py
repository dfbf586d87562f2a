"""Figure 6: PIP's impact on the cyclic-reference kernel (a,b)^N.

Two independent evaluations of the same model:

* *analytic* — exact Markov-chain expectation
  (:func:`repro.analysis.analytic.cyclic_pws_hit_rate`);
* *simulated* — the actual 2-way PWS cache replaying the kernel trace,
  averaged over trials; every PIP's trials at one N run as one fused
  pass (:func:`repro.sim.engines.multi.drive_fused`).

Expected shape: PIP=50% (unbiased) learns to use both ways fastest;
PIP=80% stays close; PIP=90% learns slowly but converges with enough
reuse; a direct-mapped cache (PIP=100%) stays at 0%.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.analytic import cyclic_pws_hit_rate
from repro.cache.geometry import CacheGeometry
from repro.core.accord import AccordDesign, make_design
from repro.experiments.common import Settings, parse_args
from repro.sim.engines.base import TraceStream, serial_segments
from repro.sim.engines.multi import FusedRun, drive_fused, fusion_plan
from repro.utils.tables import format_table
from repro.workloads.cyclic import cyclic_trace, same_preferred_conflicting_addresses

PIPS = (0.5, 0.7, 0.8, 0.9)
ITERATIONS = (2, 4, 8, 16, 32, 64, 128)
_KERNEL_CAPACITY = 1 << 20  # a small cache is enough for a 2-line kernel


def simulated_hit_rates(
    pips: Sequence[float], iterations: int, trials: int = 32
) -> List[float]:
    """Replay (a,b)^N against real 2-way PWS caches; one average per PIP.

    Trial ``t`` of each PIP is a fresh cache seeded ``t + 1``. All
    ``len(pips) * trials`` caches run in one fused pass, and each
    average sums its trials' hit rates in trial order, exactly as
    reading the trace into each cache one address at a time would.
    """
    addresses = same_preferred_conflicting_addresses(_KERNEL_CAPACITY, ways=2, count=2)
    trace = cyclic_trace(addresses, iterations)
    geometry = CacheGeometry(_KERNEL_CAPACITY, 2)
    segments = serial_segments(trace, 0, None)
    runs = []
    for pip in pips:
        for trial in range(trials):
            cache = make_design(
                AccordDesign(kind="pws", ways=2, pip=pip), geometry, seed=trial + 1
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


def run(settings: Optional[Settings] = None, trials: int = 32) -> str:
    rows = []
    for n in ITERATIONS:
        row = [str(n)]
        simulated = simulated_hit_rates(PIPS, n, trials=trials)
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
