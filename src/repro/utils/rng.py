"""Deterministic pseudo-random number generation.

The simulator needs randomness in three places: the random replacement
policy, the PWS install coin flip, and workload generation. All of them
use :class:`XorShift64` so results are reproducible across runs and
platforms, and independent streams can be derived from a single
experiment seed.

xorshift64* is used rather than :mod:`random` because it is cheap, has a
tiny state we can snapshot, and its determinism does not depend on the
stdlib's Mersenne Twister implementation details.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D


class XorShift64:
    """A small, fast, deterministic PRNG (xorshift64* variant)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int = 1):
        # A zero state would make xorshift degenerate to all zeros.
        self._state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def fork(self, stream_id: int) -> "XorShift64":
        """Derive an independent generator for a named sub-stream.

        Mixing the stream id through one xorshift step decorrelates the
        child from the parent even for small consecutive ids.
        """
        mixed = (self._state ^ ((stream_id + 1) * 0xBF58476D1CE4E5B9)) & _MASK64
        child = XorShift64(mixed)
        child.next_u64()
        return child

    def next_u64(self) -> int:
        """Return the next 64-bit unsigned pseudo-random integer."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _MULT) & _MASK64

    def next_float(self) -> float:
        """Return a float uniformly distributed in [0, 1)."""
        return self.next_u64() / float(1 << 64)

    def next_below(self, bound: int) -> int:
        """Return an integer uniformly distributed in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def next_bool(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.next_float() < probability

    def choice(self, items):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.next_below(len(items))]

    def getstate(self) -> int:
        """Return the internal 64-bit state (for snapshot/restore)."""
        return self._state

    def setstate(self, state: int) -> None:
        """Restore a state previously returned by :meth:`getstate`."""
        self._state = (state & _MASK64) or 0x9E3779B97F4A7C15


class SetLocalRng:
    """Deterministic per-set random streams.

    Policies that draw randomness per cache set (random victim picks,
    the PWS install coin) must produce the same values for set *s*
    regardless of how accesses to *other* sets interleave with it —
    otherwise splitting a run into set shards changes the outcome. A
    single sequential :class:`XorShift64` stream breaks that: every
    draw advances one global state, so removing another set's accesses
    shifts every subsequent value.

    Here each set gets its own splitmix64 stream: the per-set seed is
    ``mix64(base ^ s * K)`` and the *n*-th draw is ``mix64(seed + n)``
    — a pure function of ``(base_seed, s, n)``, counter-based and
    interleaving-invariant. The only mutable state is a per-set
    ``[seed, counter]`` pair.
    """

    __slots__ = ("_base", "_streams")

    _STREAM_MULT = 0xBF58476D1CE4E5B9

    def __init__(self, seed: int = 1):
        self._base = mix64((seed & _MASK64) or 0x9E3779B97F4A7C15)
        self._streams: dict = {}

    @classmethod
    def from_stream(cls, rng: "XorShift64") -> "SetLocalRng":
        """Derive a set-local generator seeded from a sequential one.

        Keeps policy constructors backwards compatible: callers keep
        passing an :class:`XorShift64` and the set-local base seed is
        read from its state without consuming any draws.
        """
        return cls(rng.getstate())

    def next_u64(self, set_index: int) -> int:
        """Return the next 64-bit value of ``set_index``'s stream."""
        stream = self._streams.get(set_index)
        if stream is None:
            stream = [
                mix64(self._base ^ (set_index * self._STREAM_MULT & _MASK64)), 0
            ]
            self._streams[set_index] = stream
        count = stream[1]
        stream[1] = count + 1
        return mix64(stream[0] + count)

    def next_float(self, set_index: int) -> float:
        """Return the stream's next float uniform in [0, 1)."""
        return self.next_u64(set_index) / float(1 << 64)

    def next_below(self, set_index: int, bound: int) -> int:
        """Return the stream's next integer uniform in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64(set_index) % bound

    def next_bool(self, set_index: int, probability: float) -> bool:
        """Return True with the given probability for this stream."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.next_float(set_index) < probability


def mix64(value: int) -> int:
    """A stateless 64-bit finalizer (splitmix64) for hashing integers.

    Used where a policy needs a deterministic pseudo-random function of
    an address (e.g. workload generators spreading pages over memory).
    """
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# -- vectorized counterparts (numpy) ----------------------------------------
#
# The vector simulation engine (repro.sim.engines.vector) replays the
# per-set counter-based streams of SetLocalRng as whole-array numpy
# operations. These helpers are the array forms of mix64 / the stream
# seeding / the draw formula above; the scalar and vectorized paths are
# asserted bit-identical by the test suite. All arithmetic is uint64
# with silent wraparound (numpy's native behavior), matching the
# ``& _MASK64`` masking of the scalar code.


def mix64_array(values):
    """Vectorized :func:`mix64` over a uint64 numpy array."""
    import numpy as np

    z = (values + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def set_stream_seeds(base: int, set_indices):
    """Vectorized per-set stream seeds of :class:`SetLocalRng`.

    ``base`` is the generator's ``_base``; ``set_indices`` is an integer
    numpy array. Element *i* equals the scalar
    ``mix64(base ^ (set_indices[i] * _STREAM_MULT & MASK64))``.
    """
    import numpy as np

    sets = set_indices.astype(np.uint64, copy=False)
    mixed = np.uint64(base) ^ (sets * np.uint64(SetLocalRng._STREAM_MULT))
    return mix64_array(mixed)
