"""Trace profiling: measure the properties workload calibration targets.

Given a trace, compute the observable characteristics the synthetic
generators are supposed to reproduce — footprint, write fraction,
spatial run lengths (what GWS exploits), region working-set behaviour,
and an approximate reuse-distance profile (what determines hit-rate at
a given capacity). Used by calibration tests to close the loop between
:class:`repro.workloads.spec.WorkloadSpec` knobs and generated traces,
and available to users profiling their own traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TraceError
from repro.params.system import LINE_SIZE, PAGE_SIZE
from repro.sim.trace import Trace


@dataclass(frozen=True)
class TraceProfile:
    """Summary statistics of one trace."""

    accesses: int
    reads: int
    writes: int
    footprint_lines: int
    footprint_pages: int
    write_fraction: float
    mean_run_length: float
    max_run_length: int
    region_reuse_fraction: float  # accesses to a recently-seen 4KB region
    reuse_histogram: Dict[str, int] = field(default_factory=dict)

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_lines * LINE_SIZE

    def summary(self) -> str:
        lines = [
            f"accesses          {self.accesses}",
            f"reads/writes      {self.reads}/{self.writes} "
            f"(write fraction {self.write_fraction:.3f})",
            f"footprint         {self.footprint_lines} lines / "
            f"{self.footprint_pages} pages ({self.footprint_bytes / 2**20:.1f} MB)",
            f"mean run length   {self.mean_run_length:.2f} lines "
            f"(max {self.max_run_length})",
            f"region reuse      {self.region_reuse_fraction:.3f}",
        ]
        if self.reuse_histogram:
            lines.append("reuse distances   " + "  ".join(
                f"{bucket}:{count}" for bucket, count in self.reuse_histogram.items()
            ))
        return "\n".join(lines)


# Reuse-distance buckets (in distinct lines touched since last use).
_BUCKETS = [
    (256, "<256"),
    (4 * 1024, "<4K"),
    (64 * 1024, "<64K"),
    (1024 * 1024, "<1M"),
]
_COLD = "cold"
_TAIL = ">=1M"


def _bucket_of(distance: int) -> str:
    for limit, label in _BUCKETS:
        if distance < limit:
            return label
    return _TAIL


class ReuseDistanceEstimator:
    """Approximate LRU stack distances via access timestamps.

    Exact stack distance is O(n log n) with a balanced tree; for
    profiling purposes we approximate the number of *distinct* lines
    between uses by the number of accesses between uses capped by the
    current footprint — an overestimate that still separates the
    hot/warm/cold populations the generators are tuned against.
    """

    def __init__(self):
        self._last_use: Dict[int, int] = {}
        self._clock = 0
        self.histogram: Dict[str, int] = {label: 0 for _, label in _BUCKETS}
        self.histogram[_TAIL] = 0
        self.histogram[_COLD] = 0

    def touch(self, line: int) -> None:
        previous = self._last_use.get(line)
        if previous is None:
            self.histogram[_COLD] += 1
        else:
            gap = self._clock - previous
            distance = min(gap, len(self._last_use))
            self.histogram[_bucket_of(distance)] += 1
        self._last_use[line] = self._clock
        self._clock += 1


def profile_trace(
    trace: Trace,
    region_window: int = 64,
    reuse_distances: bool = True,
) -> TraceProfile:
    """Profile a trace; ``region_window`` mirrors the RLT size."""
    if len(trace) == 0:
        raise TraceError("cannot profile an empty trace")

    reads = 0
    writes = 0
    lines = set()
    pages = set()

    run_length = 0
    run_lengths: List[int] = []
    previous_line: Optional[int] = None

    recent_regions: List[int] = []
    region_positions: Dict[int, int] = {}
    region_hits = 0
    region_lookups = 0

    estimator = ReuseDistanceEstimator() if reuse_distances else None

    for addr, is_write in zip(*trace.scalar_columns()):
        line = addr // LINE_SIZE
        if is_write:
            writes += 1
            continue
        reads += 1
        lines.add(line)
        pages.add(addr // PAGE_SIZE)

        if previous_line is not None and line == previous_line + 1:
            run_length += 1
        else:
            if run_length:
                run_lengths.append(run_length)
            run_length = 1
        previous_line = line

        region = addr // PAGE_SIZE
        region_lookups += 1
        if region in region_positions:
            region_hits += 1
            recent_regions.remove(region)
            recent_regions.append(region)
        else:
            recent_regions.append(region)
            if len(recent_regions) > region_window:
                evicted = recent_regions.pop(0)
                del region_positions[evicted]
        region_positions[region] = 1

        if estimator is not None:
            estimator.touch(line)

    if run_length:
        run_lengths.append(run_length)

    mean_run = sum(run_lengths) / len(run_lengths) if run_lengths else 0.0
    return TraceProfile(
        accesses=len(trace),
        reads=reads,
        writes=writes,
        footprint_lines=len(lines),
        footprint_pages=len(pages),
        write_fraction=writes / max(reads, 1),
        mean_run_length=mean_run,
        max_run_length=max(run_lengths) if run_lengths else 0,
        region_reuse_fraction=region_hits / max(region_lookups, 1),
        reuse_histogram=dict(estimator.histogram) if estimator else {},
    )
