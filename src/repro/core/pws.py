"""Probabilistic Way-Steering (PWS), Section IV-B of the paper.

The preferred way of a line is a pure function of its tag (tag parity
for two ways). On an install, PWS places the line in the preferred way
with probability PIP (Preferred-way Install Probability, default 85%)
and in one of the other candidate ways otherwise. Way prediction is the
stateless preferred way, so prediction accuracy approximately equals
PIP while conflicting lines can still spread across the set.

PIP=50% (for 2 ways) degenerates to unbiased random install;
PIP=100% degenerates to a direct-mapped cache.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import ReplacementPolicy
from repro.cache.storage import TagStore
from repro.core.steering import InstallSteering, preferred_way
from repro.errors import PolicyError
from repro.utils.rng import SetLocalRng, XorShift64

DEFAULT_PIP = 0.85


class ProbabilisticWaySteering(InstallSteering):
    """Install into the tag-preferred way with probability ``pip``."""

    name = "pws"
    # The PIP coin and the spill pick are drawn from per-set
    # counter-based streams, so the install choices for one set are
    # independent of other sets' traffic and the vector engine replays
    # them exactly.
    vectorizable = True

    def __init__(
        self,
        geometry: CacheGeometry,
        pip: float = DEFAULT_PIP,
        rng: Optional[XorShift64] = None,
    ):
        super().__init__(geometry)
        if not 0.0 <= pip <= 1.0:
            raise PolicyError(f"PIP must be in [0, 1], got {pip}")
        if geometry.ways < 2 and pip < 1.0:
            # A 1-way cache has no alternate; treat it as direct-mapped.
            pip = 1.0
        self.pip = pip
        self._rng = SetLocalRng.from_stream(rng or XorShift64(0x1B39))

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        replacement: ReplacementPolicy,
    ) -> int:
        return self.steer_among(
            set_index, self.candidate_ways(set_index, tag), tag
        )

    def steer_among(
        self, set_index: int, candidates: Sequence[int], tag: int
    ) -> int:
        """Apply the PIP coin flip over an explicit candidate list.

        Split out so SWS can reuse the same biased choice over its
        two-entry candidate set. ``set_index`` selects the per-set
        random stream the coin is drawn from.
        """
        preferred = preferred_way(tag, self.ways)
        if preferred not in candidates:
            # SWS guarantees the preferred way is always a candidate, so
            # this only happens with a mis-wired policy stack.
            raise PolicyError(
                f"preferred way {preferred} not among candidates {candidates}"
            )
        if len(candidates) == 1 or self._rng.next_bool(set_index, self.pip):
            return preferred
        others = [w for w in candidates if w != preferred]
        return others[self._rng.next_below(set_index, len(others))]

    def storage_bits(self) -> int:
        return 0  # PWS is stateless (Table IX)
