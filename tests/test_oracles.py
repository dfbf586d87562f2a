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

from repro.exec.jobs import parse_design_spec
from repro.params.system import scaled_system
from repro.sim.system import Simulator
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


def uniform_trace(lines: int, seed: int) -> Trace:
    """``ACCESSES`` reads of i.i.d. uniform line addresses in [0, lines)."""
    picks = np.random.default_rng(seed).integers(
        0, lines, size=ACCESSES, dtype=np.int64
    )
    return Trace("uniform", picks * LINE_BYTES,
                 np.zeros(ACCESSES, np.uint8), 1.0)


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
