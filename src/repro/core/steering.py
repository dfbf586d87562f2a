"""Install-steering framework.

A *steering policy* answers two questions for the DRAM cache:

1. ``candidate_ways(tag)`` — in which ways may a line with this tag
   reside at all? This set is what miss confirmation must probe: the
   full set of ways for conventional designs, exactly two for SWS.
2. ``choose_install_way(...)`` — on a fill, which way receives the line?

Coordination with way prediction happens through shared conventions
(the *preferred way* is a pure function of the tag) and, for GWS,
through shared region tables.
"""

from __future__ import annotations

from typing import Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import ReplacementPolicy
from repro.cache.storage import TagStore
from repro.errors import PolicyError
from repro.utils.bitops import ilog2


_HASH_MULT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def tag_hash(tag: int) -> int:
    """Stateless 64-bit hash of a tag (one multiply, top bits used).

    The paper derives the preferred way from raw tag LSBs (tag parity
    for 2 ways, Figure 5a). Under paged physical memory that is fine,
    but lines that alias in *every* set-associative organization of one
    capacity necessarily have tags differing by a multiple of the way
    count — raw LSBs would then give all conflicting lines the same
    preferred way, a pathological correlation. Hashing the tag first
    keeps the function stateless and address-derived (the property
    ACCORD needs) while decorrelating preferred ways of conflicting
    lines. Documented as a deviation in DESIGN.md.
    """
    return ((tag + 1) * _HASH_MULT & _MASK64) >> 32


def preferred_way(tag: int, ways: int) -> int:
    """ACCORD's preferred-way function: a stateless hash of the tag."""
    return tag_hash(tag) & (ways - 1)


class InstallSteering:
    """Base class: unrestricted candidates, subclass picks the way."""

    name = "base"

    def __init__(self, geometry: CacheGeometry):
        if geometry.ways < 1:
            raise PolicyError("steering requires at least one way")
        self.geometry = geometry
        self.ways = geometry.ways
        self._all_ways = tuple(range(geometry.ways))

    def candidate_ways(self, set_index: int, tag: int) -> Sequence[int]:
        """Ways where a line with this tag may legally reside."""
        return self._all_ways

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        replacement: ReplacementPolicy,
    ) -> int:
        """Pick the way to install an incoming line into."""
        raise NotImplementedError

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None:
        """Called after the install commits (lets GWS update its RIT)."""

    def storage_bits(self) -> int:
        """SRAM cost of the policy's metadata (Table IX accounting)."""
        return 0


class UnbiasedSteering(InstallSteering):
    """Baseline set-associative install: the replacement policy decides.

    With random replacement this is the paper's "2-way (Unbiased,
    PIP=50%)" configuration.
    """

    name = "unbiased"
    # Delegates entirely to the replacement policy; whether the combined
    # stack vectorizes is the replacement policy's call, checked
    # separately by unvectorizable_roles().
    vectorizable = True

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        replacement: ReplacementPolicy,
    ) -> int:
        candidates = self.candidate_ways(set_index, tag)
        return replacement.victim(set_index, candidates, store)


class DirectMappedSteering(InstallSteering):
    """Degenerate steering for 1-way caches (and PIP=100% semantics)."""

    name = "direct"
    vectorizable = True  # stateless: pure function of the tag

    def candidate_ways(self, set_index: int, tag: int) -> Sequence[int]:
        if self.ways == 1:
            return (0,)
        return (preferred_way(tag, self.ways),)

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        replacement: ReplacementPolicy,
    ) -> int:
        return self.candidate_ways(set_index, tag)[0]


def ways_bits(ways: int) -> int:
    """Bits needed to name one way (0 for a direct-mapped cache)."""
    return ilog2(ways) if ways > 1 else 0
