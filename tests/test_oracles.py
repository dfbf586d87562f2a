"""Oracles that share no code with the drive engines.

Every engine is pinned to the reference loop, so an error in semantics
they share (geometry split, set-local RNG streams, warmup accounting)
would pass every engine-equivalence check. These tests compare
simulated hit rates with expectations derived from probability alone.

Uniform-reference oracle: feed a read-only trace of i.i.d. uniform
line addresses over F lines to any demand-fetch cache that holds C
distinct lines. Whatever the cache holds, the next address is one of
its lines with probability exactly C/F, so each post-warmup read hits
with probability C/F given the past. The hit count is then a sum of
martingale differences around n·C/F with variance n·p·(1-p), which
gives a z-score whose tolerance follows from the access count alone.
"""

import math
from collections import OrderedDict

import numpy as np
import pytest

from repro.analysis.analytic import lookup_cost_table
from repro.core.steering import preferred_way
from repro.exec.jobs import parse_design_spec
from repro.params.system import scaled_system
from repro.sim.engines import ENGINES
from repro.sim.system import Simulator, build_dram_cache
from repro.sim.trace import Trace

LINE_BYTES = 64
# 4 GB / 16384 = 256 KB: C = 4096 lines, small enough that the warmup
# replaces every junk-prefilled line many times over.
SCALE = 1.0 / 16384.0
ACCESSES = 200_000
WARMUP = 0.5
MAX_Z = 5.0


def capacity_lines(ways: int, scale: float = SCALE) -> int:
    return scaled_system(ways=ways, scale=scale).dram_cache.capacity_bytes \
        // LINE_BYTES


def uniform_trace(lines: int, seed: int, accesses: int = ACCESSES) -> Trace:
    """``accesses`` reads of i.i.d. uniform line addresses in [0, lines)."""
    picks = np.random.default_rng(seed).integers(
        0, lines, size=accesses, dtype=np.int64
    )
    return Trace("uniform", picks * LINE_BYTES,
                 np.zeros(accesses, np.uint8), 1.0)


def z_score(spec: str, footprint_factor: int, seed: int = 11) -> float:
    design = parse_design_spec(spec)
    lines = capacity_lines(design.ways)
    footprint = footprint_factor * lines
    expected = lines / footprint
    measured = ACCESSES - int(ACCESSES * WARMUP)
    result = Simulator(
        scaled_system(ways=design.ways, scale=SCALE), design, seed=7
    ).run(uniform_trace(footprint, seed), warmup_fraction=WARMUP)
    assert result.stats.demand_reads == measured
    sigma = math.sqrt(expected * (1.0 - expected) / measured)
    return (result.hit_rate - expected) / sigma


@pytest.mark.parametrize("spec", [
    "direct", "unbiased:2", "unbiased:8", "pws:2", "gws:2", "accord:2",
    "accord:4", "dueling:2", "sws:8:2", "ca", "serial:4",
    "unbiased:2:replacement=lru",
])
def test_uniform_hit_rate_is_capacity_over_footprint(spec):
    assert abs(z_score(spec, footprint_factor=4)) < MAX_Z


@pytest.mark.parametrize("footprint_factor", [2, 8])
@pytest.mark.parametrize("spec", ["direct", "unbiased:8"])
def test_uniform_hit_rate_tracks_the_footprint(spec, footprint_factor):
    assert abs(z_score(spec, footprint_factor)) < MAX_Z


# -- Fully-associative LRU oracle -------------------------------------------
#
# A second, engine-independent model: an OrderedDict LRU over line
# addresses with no sets at all. Bender et al.'s associativity threshold
# (PAPERS.md) says a set-associative cache behaves like a fully-
# associative one once its associativity is high enough that no set
# overflows; so unbiased:N:replacement=lru must approach this oracle as
# N grows at a fixed capacity.

LRU_WAYS = (1, 2, 4, 8, 16)
# 4 GB / 2048 = 2 MB (C = 32768 lines): enough sets that the loop test's
# tolerance separates LRU from random replacement by over 4 sigma.
LOOP_SCALE = 1.0 / 2048.0


def fully_associative_lru_hit_rate(trace: Trace, lines: int) -> float:
    """Post-warmup hit rate of a ``lines``-line fully-associative LRU."""
    resident: "OrderedDict[int, None]" = OrderedDict()
    warm = int(len(trace) * WARMUP)
    hits = 0
    for index, addr in enumerate(trace.numpy_addrs().tolist()):
        line = addr // LINE_BYTES
        if line in resident:
            resident.move_to_end(line)
            hits += index >= warm
            continue
        resident[line] = None
        if len(resident) > lines:
            resident.popitem(last=False)
    return hits / (len(trace) - warm)


def set_associative_lru_hit_rate(
    trace: Trace, ways: int, scale: float = SCALE
) -> float:
    design = parse_design_spec(f"unbiased:{ways}:replacement=lru")
    return Simulator(
        scaled_system(ways=ways, scale=scale), design, seed=7
    ).run(
        trace, warmup_fraction=WARMUP, engine="vector", engine_strict=True
    ).hit_rate


def test_lru_matches_fully_associative_on_uniform_reads():
    """Every demand-fetch cache holding C lines hits C/F of uniform
    reads, at any associativity; both models must sit within the
    access-count tolerance of it and of each other."""
    lines = capacity_lines(ways=1)
    expected = 0.5
    trace = uniform_trace(int(lines / expected), seed=13)
    sigma = math.sqrt(
        expected * (1.0 - expected) / (ACCESSES - int(ACCESSES * WARMUP))
    )
    oracle = fully_associative_lru_hit_rate(trace, lines)
    assert abs(oracle - expected) < MAX_Z * sigma
    for ways in LRU_WAYS:
        assert capacity_lines(ways) == lines
        measured = set_associative_lru_hit_rate(trace, ways)
        assert abs(measured - oracle) < 2 * MAX_Z * sigma, ways


def loop_hit_rate_model(lines: int, footprint: int, ways: int):
    """(mean, sigma) of an N-way LRU's hit rate on a loop of
    ``footprint`` random lines, C = ``lines``, S = C / N sets.

    A set holding k loop lines hits on all of them if k <= N and
    thrashes otherwise, so the miss rate is sum_s k_s [k_s > N] / L
    with each k_s ~ Binomial(L, 1/S). Sets are nearly independent
    (their counts only share the fixed total L), so the variance is S
    times one set's over L^2.
    """
    sets = lines // ways
    q = 1.0 / sets
    pmf = (1.0 - q) ** footprint  # P(k = 0)
    first = second = 0.0  # E[k [k > N]], E[k^2 [k > N]]
    for k in range(footprint + 1):
        if k > ways:
            first += k * pmf
            second += k * k * pmf
        pmf *= (footprint - k) / (k + 1) * q / (1.0 - q)
    mean = 1.0 - sets * first / footprint
    sigma = math.sqrt(sets * (second - first * first)) / footprint
    return mean, sigma


def test_lru_approaches_fully_associative_as_ways_grow():
    """A loop over L = C/2 random lines always hits in a fully-
    associative LRU; an N-way LRU loses the lines of overflowing sets
    (:func:`loop_hit_rate_model`). The gap to the oracle must shrink
    as N grows, as the associativity threshold predicts. The only
    random draw is the lines' placement, so the tolerance follows
    from the line and set counts."""
    lines = capacity_lines(ways=1, scale=LOOP_SCALE)
    footprint = lines // 2
    loop = np.random.default_rng(17).choice(
        64 * lines, size=footprint, replace=False
    )
    passes = 2 * (ACCESSES // (2 * footprint))  # warmup ends on a pass
    trace = Trace("loop", np.tile(loop, passes) * LINE_BYTES,
                  np.zeros(passes * footprint, np.uint8), 1.0)
    assert fully_associative_lru_hit_rate(trace, lines) == 1.0
    gaps = []
    for ways in LRU_WAYS:
        predicted, sigma = loop_hit_rate_model(lines, footprint, ways)
        measured = set_associative_lru_hit_rate(trace, ways, LOOP_SCALE)
        assert abs(measured - predicted) < MAX_Z * sigma, ways
        gaps.append(1.0 - measured)
    assert gaps == sorted(gaps, reverse=True)


# -- Table I as counter identities -------------------------------------------
#
# Table I (lookup_cost_table) gives each lookup organization's probes
# ("accesses") and 72B transfers per hit and per miss. On a read-only
# trace the counters must obey the miss column exactly: a miss makes one
# first probe plus (miss_accesses - 1) follow-ups. Where a probe moves
# one unit (every organization but parallel lookup), transfers equal
# first probes plus follow-ups; parallel lookup instead moves all N ways
# on every read. Each identity must hold on every engine that serves
# the design.

TABLE1_ACCESSES = 40_000
TABLE1_MEASURED = TABLE1_ACCESSES - int(TABLE1_ACCESSES * WARMUP)

# spec -> (ways of the Table I column, organization prefix). SWS(N,k)
# confines a line to k candidate ways, so its miss column is that of a
# k-way way-predicted lookup; Table I lists the k = 2 row only.
TABLE1_ROWS = {
    "direct": (1, "Direct-mapped"),
    "parallel:2": (2, "Parallel Lookup"),
    "parallel:4": (4, "Parallel Lookup"),
    "serial:4": (4, "Serial Lookup"),
    "serial:8": (8, "Serial Lookup"),
    "pws:2": (2, "Way Predicted (2-way)"),
    "accord:2": (2, "Way Predicted (2-way)"),
    "sws:8:2": (8, "Way Predicted SWS(8,2)"),
    "sws:8:4": (4, "Way Predicted (4-way)"),
}


def table1_row(spec: str):
    ways, prefix = TABLE1_ROWS[spec]
    (row,) = [r for r in lookup_cost_table(ways)
              if r.organization.startswith(prefix)]
    return row


def serving_engines(spec: str):
    """``loop`` plus every fast engine that supports the design."""
    design = parse_design_spec(spec)
    cache = build_dram_cache(design, scaled_system(ways=design.ways, scale=SCALE))
    return [name for name, engine in ENGINES.items()
            if name == "loop" or engine.supports(cache)]


def uniform_stats(spec: str, engine: str):
    """Counters of ``spec`` on 40k uniform reads over 4x its capacity."""
    design = parse_design_spec(spec)
    lines = capacity_lines(design.ways)
    trace = uniform_trace(4 * lines, seed=23, accesses=TABLE1_ACCESSES)
    stats = Simulator(
        scaled_system(ways=design.ways, scale=SCALE), design, seed=7
    ).run(
        trace, warmup_fraction=WARMUP, engine=engine, engine_strict=True
    ).stats
    assert stats.demand_reads == TABLE1_MEASURED
    assert stats.hits + stats.misses == stats.demand_reads
    return stats


@pytest.mark.parametrize("spec", sorted(TABLE1_ROWS))
def test_counters_obey_table1(spec):
    row = table1_row(spec)
    for engine in serving_engines(spec):
        stats = uniform_stats(spec, engine)
        assert stats.first_probes == stats.demand_reads, engine
        assert stats.miss_extra_probes == \
            (row.miss_accesses - 1) * stats.misses, engine
        if row.hit_transfers == row.hit_accesses \
                and row.miss_transfers == row.miss_accesses:
            assert stats.cache_read_transfers == (
                stats.demand_reads
                + stats.hit_extra_probes
                + stats.miss_extra_probes
            ), engine
        else:
            # Parallel lookup: one probe streams every way.
            assert row.hit_accesses == row.miss_accesses == 1
            assert stats.hit_extra_probes == 0, engine
            assert stats.cache_read_transfers == (
                row.hit_transfers * stats.hits
                + row.miss_transfers * stats.misses
            ), engine


@pytest.mark.parametrize("ways", [4, 8])
def test_serial_hit_cost_is_table1_mean(ways):
    """Serial lookup finds a hit in way w after w follow-up probes.
    Under uniform reads and random replacement a resident line sits in
    each way with equal probability, so the follow-ups per hit are
    uniform on {0..N-1}: mean (N+1)/2 - 1 (Table I's hit column minus
    the first probe) and variance (N^2-1)/12, which with the hit count
    sets the tolerance."""
    spec = f"serial:{ways}"
    expected = table1_row(spec).hit_accesses - 1
    for engine in serving_engines(spec):
        stats = uniform_stats(spec, engine)
        sigma = math.sqrt((ways * ways - 1) / 12.0 / stats.hits)
        measured = stats.hit_extra_probes / stats.hits
        assert abs(measured - expected) < MAX_Z * sigma, engine


# -- PWS accuracy: a per-set Markov chain ------------------------------------
#
# PWS installs a line in its preferred way with probability PIP, and
# predicts the preferred way. Accuracy is not PIP: a line sitting in its
# non-preferred way leaves the absent lines skewed toward the other
# way, so the next install there tends to evict it (above PIP for an
# even split of lines between the ways, below for 6/2). On uniform reads
# over a 2-way cache whose every set holds ``a`` lines preferring way 0
# and ``b`` preferring way 1, the state of a set is the preferred way of
# each slot's line (4 states). A hit leaves it unchanged; a miss draws
# the missing line uniformly from the a + b - 2 absent ones and installs
# it. Accuracy is the stationary share of resident lines that sit in
# their preferred way.
#
# The tolerance is binomial in the hit count. Hits on one resident line
# between its install and its eviction share its placement, which
# widens the spread: at PIP 0.5 with L lines per set the variance grows
# by 1 + 4/(L-2), so sigma by 1.4x at L = 6 and less above. MAX_Z
# leaves room for that.


def pws_chain_accuracy(pip: float, a: int, b: int) -> float:
    """Exact stationary PWS accuracy for ``a``/``b`` lines per
    preferred way in each set of a full 2-way cache."""
    states = [(p0, p1) for p0 in (0, 1) for p1 in (0, 1)]
    index = {state: i for i, state in enumerate(states)}
    absent = a + b - 2
    move = np.zeros((4, 4))
    for state in states:
        resident = [state.count(0), state.count(1)]
        for pref, count in ((0, a), (1, b)):
            draw = (count - resident[pref]) / absent
            for way, way_prob in ((pref, pip), (1 - pref, 1.0 - pip)):
                after = list(state)
                after[way] = pref
                move[index[state], index[tuple(after)]] += draw * way_prob
    # Stationary distribution: the left eigenvector for eigenvalue 1.
    values, vectors = np.linalg.eig(move.T)
    pi = np.real(vectors[:, np.argmin(abs(values - 1.0))])
    pi /= pi.sum()
    return sum(pi[index[s]] * ((s[0] == 0) + (s[1] == 1)) / 2.0
               for s in states)


def test_pws_chain_values():
    assert pws_chain_accuracy(0.5, 4, 4) == pytest.approx(0.5)
    assert pws_chain_accuracy(1.0, 4, 4) == pytest.approx(1.0)
    for pip, accuracy in ((0.7, 0.7235), (0.85, 0.8738), (0.95, 0.9609)):
        assert pws_chain_accuracy(pip, 4, 4) == pytest.approx(
            accuracy, abs=5e-5
        )


def balanced_trace(sets: int, a: int, b: int, seed: int) -> Trace:
    """Uniform reads over ``a`` + ``b`` lines in each of ``sets`` sets:
    the first ``a`` tags whose preferred way is 0 and ``b`` whose is 1,
    so every set holds the same split. ``preferred_way`` only picks the
    input here; the chain itself shares no code with the cache."""
    tags = {0: [], 1: []}
    tag = 0
    while len(tags[0]) < a or len(tags[1]) < b:
        tags[preferred_way(tag, 2)].append(tag)
        tag += 1
    chosen = np.array(tags[0][:a] + tags[1][:b], dtype=np.int64)
    lines = (chosen[:, None] * sets + np.arange(sets)[None, :]).ravel()
    picks = np.random.default_rng(seed).integers(
        0, len(lines), size=ACCESSES
    )
    return Trace("balanced", lines[picks] * LINE_BYTES,
                 np.zeros(ACCESSES, np.uint8), 1.0)


@pytest.mark.parametrize("a,b", [(3, 3), (4, 4), (6, 2), (8, 8)])
@pytest.mark.parametrize("pip", [0.5, 0.7, 0.85, 0.95])
def test_pws_accuracy_matches_the_chain(pip, a, b):
    config = scaled_system(ways=2, scale=SCALE)
    sets = config.dram_cache.capacity_bytes // LINE_BYTES // 2
    design = parse_design_spec(f"pws:2:pip={pip}")
    stats = Simulator(config, design, seed=7).run(
        balanced_trace(sets, a, b, seed=29), warmup_fraction=WARMUP
    ).stats
    expected = pws_chain_accuracy(pip, a, b)
    sigma = math.sqrt(expected * (1.0 - expected) / stats.hits)
    assert abs(stats.prediction_accuracy - expected) < MAX_Z * sigma
    if (a, b) == (4, 4) and pip in (0.7, 0.85):
        # The measurement tells the chain from PIP itself.
        assert abs(stats.prediction_accuracy - pip) > MAX_Z * sigma


# -- Figure 6: the cyclic kernel against its chain, banded by trial count --
#
# Two lines a and b share one 2-way set and both prefer way 0; the
# kernel reads a, b, a, b, ... (N rounds). A miss installs the line in
# way 0 with probability PIP, else in way 1, evicting whatever sits
# there. The state is each line's way (or absent), so the expected hit
# rate follows from matrix products over the 9 states. Figure 6's
# simulation averages independent trials (one seeded cache each), so
# the tolerance is the standard error of the mean: MAX_Z sample
# standard deviations of the per-trial hit rates over sqrt(trials).

CYCLIC_TRIALS = 64


def cyclic_chain_hit_rate(pip: float, rounds: int) -> float:
    """Exact expected hit rate of (a,b)^rounds on the set above."""
    places = (None, 0, 1)
    states = [(pa, pb) for pa in places for pb in places
              if pa is None or pa != pb]
    index = {state: i for i, state in enumerate(states)}
    resident = []
    moves = []
    for line in (0, 1):
        hit = np.array([float(s[line] is not None) for s in states])
        move = np.zeros((len(states), len(states)))
        for state in states:
            if state[line] is not None:
                move[index[state], index[state]] = 1.0
                continue
            for way, prob in ((0, pip), (1, 1.0 - pip)):
                after = list(state)
                other = 1 - line
                if after[other] == way:
                    after[other] = None  # evicted
                after[line] = way
                move[index[state], index[tuple(after)]] += prob
        resident.append(hit)
        moves.append(move)
    dist = np.zeros(len(states))
    dist[index[(None, None)]] = 1.0
    hits = 0.0
    for _ in range(rounds):
        for line in (0, 1):
            hits += dist @ resident[line]
            dist = dist @ moves[line]
    return hits / (2 * rounds)


def test_cyclic_chain_values():
    assert cyclic_chain_hit_rate(1.0, 64) == 0.0  # direct-mapped
    assert cyclic_chain_hit_rate(0.5, 1) == 0.0  # two cold misses
    # a, b, a, b: the second round hits twice when the lines went to
    # different ways (2pq); otherwise a misses again, and b survives
    # when a lands in the other way (p*p*q + q*q*p).
    p, q = 0.7, 0.3
    assert cyclic_chain_hit_rate(p, 2) == pytest.approx(
        (2 * 2 * p * q + p * p * q + q * q * p) / 4
    )


@pytest.mark.parametrize("rounds", [4, 16, 64])
@pytest.mark.parametrize("pip", [0.5, 0.7, 0.9])
def test_figure6_simulation_matches_the_chain(pip, rounds):
    from repro.analysis.analytic import cyclic_pws_hit_rate
    from repro.experiments.fig6_cyclic import (
        simulated_hit_rate,
        trial_hit_rates,
    )

    expected = cyclic_chain_hit_rate(pip, rounds)
    # The report's analytic column is the same chain.
    assert cyclic_pws_hit_rate(pip, rounds) == pytest.approx(
        expected, abs=1e-12
    )
    (rates,) = trial_hit_rates((pip,), rounds, CYCLIC_TRIALS)
    mean = simulated_hit_rate(pip, rounds, CYCLIC_TRIALS)
    assert mean == sum(rates) / CYCLIC_TRIALS
    spread = float(np.std(rates, ddof=1))
    assert spread > 0.0
    assert abs(mean - expected) < MAX_Z * spread / math.sqrt(CYCLIC_TRIALS)
