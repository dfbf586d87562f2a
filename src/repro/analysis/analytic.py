"""Closed-form / exact-probabilistic models from the paper.

* :func:`lookup_cost_table` — Table I: accesses and transfers per hit
  and per miss for each lookup organization.
* :func:`cyclic_pws_hit_rate` — the cyclic-reference model of Section
  IV-B.1 (Figure 6): exact hit-rate of the (a,b)^N kernel on a 2-way
  cache under PWS with a given PIP, computed by dynamic programming
  over the Markov chain of line placements (no sampling noise);
  :func:`cyclic_pws_hit_rates` gives several N from one chain run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import PolicyError


@dataclass(frozen=True)
class LookupCost:
    """Expected lookup costs for one cache organization (Table I)."""

    organization: str
    hit_accesses: float
    hit_transfers: float
    miss_accesses: float
    miss_transfers: float


def lookup_cost_table(ways: int) -> List[LookupCost]:
    """Reproduce Table I for an N-way cache.

    Serial lookup's expected hit cost assumes the line is equally likely
    in each way: (N+1)/2 — the paper rounds this to N/2.
    """
    if ways < 1:
        raise PolicyError("ways must be >= 1")
    n = float(ways)
    return [
        LookupCost("Direct-mapped", 1, 1, 1, 1),
        LookupCost(f"Parallel Lookup ({ways}-way)", 1, n, 1, n),
        LookupCost(f"Serial Lookup ({ways}-way)", (n + 1) / 2, (n + 1) / 2, n, n),
        LookupCost(f"Way Predicted ({ways}-way)", 1, 1, n, n),
        LookupCost(f"Way Predicted SWS({ways},2)", 1, 1, 2, 2),
    ]


# --- Cyclic reference model --------------------------------------------------

# State: (loc_a, loc_b) where loc in {-1 (absent), 0, 1}; both lines can
# never share a way.
_State = Tuple[int, int]


def _install(dist: Dict[_State, float], which: int, pip: float) -> Dict[_State, float]:
    """Install line ``which`` (0 = a, 1 = b) into the preferred way 0
    with probability ``pip`` else way 1, evicting any occupant."""
    out: Dict[_State, float] = {}
    for (loc_a, loc_b), prob in dist.items():
        locs = [loc_a, loc_b]
        if locs[which] != -1:
            out[(loc_a, loc_b)] = out.get((loc_a, loc_b), 0.0) + prob
            continue
        for way, way_prob in ((0, pip), (1, 1.0 - pip)):
            if way_prob <= 0.0:
                continue
            new = list(locs)
            other = 1 - which
            if new[other] == way:
                new[other] = -1  # evicted
            new[which] = way
            key = (new[0], new[1])
            out[key] = out.get(key, 0.0) + prob * way_prob
    return out


def cyclic_pws_hit_rate(pip: float, iterations: int) -> float:
    """Exact expected hit-rate of (a,b)^N on a 2-way PWS cache.

    Both lines prefer way 0 (the conflicting-pair case the paper
    analyzes). PIP=1.0 degenerates to a direct-mapped cache (0% hits);
    PIP=0.5 is unbiased random install.
    """
    return cyclic_pws_hit_rates(pip, (iterations,))[0]


def cyclic_pws_hit_rates(pip: float, iterations: Sequence[int]) -> List[float]:
    """:func:`cyclic_pws_hit_rate` at each N in ``iterations``, in order.

    Runs the Markov chain once, up to the largest N, and reads the
    running expected-hit total off at each requested N. The chain's
    operations for a given N are a prefix of those for any larger N,
    so every rate is bit-identical to a separate run to that N.
    """
    if not 0.0 <= pip <= 1.0:
        raise PolicyError(f"PIP must be in [0, 1], got {pip}")
    if not iterations or min(iterations) < 1:
        raise PolicyError("iterations must be >= 1")

    wanted = set(iterations)
    last = max(wanted)
    totals: Dict[int, float] = {}
    dist: Dict[_State, float] = {(-1, -1): 1.0}
    expected_hits = 0.0
    for n in range(1, last + 1):
        for which in (0, 1):
            hit_prob = sum(
                prob
                for (loc_a, loc_b), prob in dist.items()
                if (loc_a if which == 0 else loc_b) != -1
            )
            expected_hits += hit_prob
            dist = _install(dist, which, pip)
        if n in wanted:
            totals[n] = expected_hits
    return [totals[n] / (2.0 * n) for n in iterations]
