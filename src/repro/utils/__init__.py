"""Shared low-level utilities: bit manipulation, deterministic RNG, tables.

These helpers are intentionally dependency-free (except numpy) so every
other subpackage can use them without import cycles.
"""

from repro.utils.bitops import (
    bit_field,
    ceil_div,
    ilog2,
    is_pow2,
    mask,
)
from repro.utils.rng import XorShift64
from repro.utils.tables import format_table
from repro.utils.fixedpoint import solve_fixed_point

__all__ = [
    "bit_field",
    "ceil_div",
    "ilog2",
    "is_pow2",
    "mask",
    "XorShift64",
    "format_table",
    "solve_fixed_point",
]
