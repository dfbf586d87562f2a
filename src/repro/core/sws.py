"""Skewed Way-Steering (SWS), Section V of the paper.

For an N-way cache, unrestricted residency makes miss confirmation cost
N probes, which dominates bandwidth once miss rate is non-trivial. SWS
restricts each line to exactly two of the N ways:

* the **preferred way** — low log2(N) bits of the tag, and
* the **alternate way** — found by scanning the tag's higher bits in
  log2(N)-bit groups, taking the first group that differs from the
  preferred way; if every group equals the preferred way, the preferred
  way's bits are inverted.

Miss confirmation then probes only two ways regardless of N, and
prediction/steering reuse the 2-way ACCORD machinery over the
{preferred, alternate} pair. SWS(N, k) generalizes to k allowed
locations (k-1 alternates taken from successive differing groups).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import ReplacementPolicy
from repro.cache.storage import TagStore
from repro.core.pws import DEFAULT_PIP, ProbabilisticWaySteering
from repro.core.steering import InstallSteering, preferred_way, tag_hash, ways_bits
from repro.errors import PolicyError
from repro.utils.bitops import bit_field, mask
from repro.utils.rng import XorShift64

_TAG_SCAN_GROUPS = 9  # bit groups of the 32-bit tag hash to scan


def alternate_way(tag: int, ways: int) -> int:
    """The paper's alternate-way hash (Section V-A).

    Scans ``log2(ways)``-bit groups of the tag starting at the group
    just above the preferred-way bits; the first group whose value
    differs from the preferred way is the alternate. If all scanned
    groups match, the preferred way's bits are inverted.
    """
    if ways < 2:
        raise PolicyError("alternate_way requires at least 2 ways")
    bits = ways_bits(ways)
    hashed = tag_hash(tag)
    preferred = hashed & mask(bits)
    for group in range(1, _TAG_SCAN_GROUPS + 1):
        candidate = bit_field(hashed, group * bits, bits)
        if candidate != preferred:
            return candidate
    return preferred ^ mask(bits)


def skewed_candidates(tag: int, ways: int, hashes: int = 2) -> Tuple[int, ...]:
    """The k allowed ways for a tag under SWS(N, k).

    ``hashes=1`` degenerates to direct-mapped (preferred only);
    ``hashes=2`` is the paper's SWS; larger k collects further distinct
    alternates from successive tag bit groups.
    """
    if hashes < 1:
        raise PolicyError(f"need at least one hash, got {hashes}")
    if hashes > ways:
        raise PolicyError(f"cannot pick {hashes} distinct ways out of {ways}")
    preferred = preferred_way(tag, ways)
    if hashes == 1 or ways < 2:
        return (preferred,)
    chosen: List[int] = [preferred]
    bits = ways_bits(ways)
    hashed = tag_hash(tag)
    group = 1
    while len(chosen) < hashes and group <= _TAG_SCAN_GROUPS:
        candidate = bit_field(hashed, group * bits, bits)
        if candidate not in chosen:
            chosen.append(candidate)
        group += 1
    # Fill any remaining slots deterministically (rare: degenerate tags).
    probe = preferred ^ mask(bits)
    while len(chosen) < hashes:
        if probe not in chosen:
            chosen.append(probe)
        probe = (probe + 1) % ways
    return tuple(chosen)


class SkewedWaySteering(InstallSteering):
    """SWS(N, k): residency restricted to k tag-hashed ways.

    Within the candidate pair the install choice is PWS-biased toward
    the preferred way (the same PIP coin as 2-way ACCORD), so the
    stateless preferred-way prediction stays accurate.
    """

    name = "sws"
    # Candidates are pure in the tag and the install coin is per-set
    # (via PWS's set-local stream), so the vector engine can replay the
    # candidate scan as whole-array ops.
    vectorizable = True
    # Implied by vectorizable, declared for symmetry with the GWS
    # wrapper that embeds SWS as its install fallback: the candidate
    # matrix precomputes and the install coin replays per set.
    replay_vectorizable = True

    def __init__(
        self,
        geometry: CacheGeometry,
        hashes: int = 2,
        pip: float = DEFAULT_PIP,
        rng: Optional[XorShift64] = None,
    ):
        super().__init__(geometry)
        if geometry.ways < 2:
            raise PolicyError("SWS requires an associative cache")
        self.hashes = hashes
        self._pws = ProbabilisticWaySteering(geometry, pip=pip, rng=rng)
        # Candidate computation is pure in the tag; memoize the last one
        # because lookup and install usually query the same tag twice.
        self._memo_tag = -1
        self._memo_ways: Tuple[int, ...] = ()

    @property
    def pip(self) -> float:
        return self._pws.pip

    def candidate_ways(self, set_index: int, tag: int) -> Sequence[int]:
        if tag != self._memo_tag:
            self._memo_tag = tag
            self._memo_ways = skewed_candidates(tag, self.ways, self.hashes)
        return self._memo_ways

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        replacement: ReplacementPolicy,
    ) -> int:
        candidates = self.candidate_ways(set_index, tag)
        return self._pws.steer_among(set_index, candidates, tag)

    def storage_bits(self) -> int:
        return 0  # the hash is combinational logic (Table IX)
