"""Bit-level helpers used by address mapping and policy hashing.

All functions operate on arbitrary-precision Python integers, which lets
the cache geometry code handle byte addresses for gigascale memories
without overflow concerns.
"""

from __future__ import annotations

from repro.errors import GeometryError


def is_pow2(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Return log2 of a power-of-two integer.

    Raises :class:`GeometryError` for values that are not powers of two,
    because every caller in this library requires exact bit widths.
    """
    if not is_pow2(value):
        raise GeometryError(f"expected a power of two, got {value!r}")
    return value.bit_length() - 1


def mask(width: int) -> int:
    """Return an integer with the low ``width`` bits set."""
    if width < 0:
        raise GeometryError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bit_field(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``."""
    if low < 0:
        raise GeometryError(f"bit offset must be non-negative, got {low}")
    return (value >> low) & mask(width)


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounding up."""
    if denominator <= 0:
        raise GeometryError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)
