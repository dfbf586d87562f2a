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


def capacity_lines(ways: int) -> int:
    return scaled_system(ways=ways, scale=SCALE).dram_cache.capacity_bytes \
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
