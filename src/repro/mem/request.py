"""Timing records returned by the cycle-level memory devices."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceResponse:
    """Timing outcome of one device access in the detailed engine."""

    ready_ns: float
    row_hit: bool
