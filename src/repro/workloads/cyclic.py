"""Cyclic reference kernel (paper Section IV-B.1, Figure 6).

The kernel (a, b)^N accesses two conflicting lines alternately, N times.
A direct-mapped cache thrashes (0% hits); a 2-way cache eventually
co-locates both lines, with PWS's install bias (PIP) controlling how
quickly the pair learns to use both ways.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import WorkloadError
from repro.sim.trace import Trace


def same_preferred_conflicting_addresses(
    cache_capacity_bytes: int, ways: int = 2, count: int = 2
) -> List[int]:
    """Conflicting addresses that also share a *preferred way*.

    The paper's cyclic-reference analysis (Section IV-B.1) studies two
    lines contending for the same preferred location; with the hashed
    preferred-way function, arbitrary capacity-aliased addresses only
    share a preferred way half the time, so this helper scans aliased
    candidates until ``count`` of them agree.
    """
    from repro.cache.geometry import CacheGeometry
    from repro.core.steering import preferred_way

    if count < 1:
        raise WorkloadError("need at least one address")
    geometry = CacheGeometry(cache_capacity_bytes, ways)
    chosen: List[int] = []
    target = None
    candidate = 0
    while len(chosen) < count:
        addr = candidate * cache_capacity_bytes
        candidate += 1
        way = preferred_way(geometry.tag(addr), ways)
        if target is None:
            target = way
        if way == target:
            chosen.append(addr)
        if candidate > 64 * count:
            raise WorkloadError("could not find enough same-preferred addresses")
    return chosen


def cyclic_trace(
    addresses: Sequence[int],
    iterations: int,
    name: str = "cyclic",
) -> Trace:
    """The temporal sequence (a1, a2, ..., ak)^N as a read-only trace."""
    if iterations < 1:
        raise WorkloadError("iterations must be >= 1")
    if not addresses:
        raise WorkloadError("need at least one address")
    addrs: List[int] = []
    for _ in range(iterations):
        addrs.extend(addresses)
    return Trace(
        name=name,
        addrs=addrs,
        writes=bytearray(len(addrs)),
        instructions_per_access=1000.0,
    )
