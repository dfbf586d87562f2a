"""Core performance model and multi-core (weighted-speedup) aggregation.

The paper reports *weighted speedup* for 16-core rate-mode workloads
normalized to the direct-mapped baseline, aggregated as a geometric
mean across workloads. In rate mode all cores execute the same
benchmark, so weighted speedup equals the per-core speedup computed by
the interval model with rate-mode bandwidth sharing; this module makes
that relationship explicit and also supports heterogeneous (mix-style)
aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError


@dataclass(frozen=True)
class CorePerformance:
    """Per-core outcome of one run."""

    instructions: float
    runtime_ns: float

    def __post_init__(self):
        if self.instructions <= 0:
            raise SimulationError("instructions must be positive")
        if self.runtime_ns <= 0:
            raise SimulationError("runtime must be positive")

    @property
    def ips(self) -> float:
        """Instructions per nanosecond."""
        return self.instructions / self.runtime_ns


def weighted_speedup(
    cores: Sequence[CorePerformance],
    baselines: Sequence[CorePerformance],
) -> float:
    """Sum over cores of (IPS_config / IPS_baseline) / num_cores.

    For rate mode (all cores identical) this collapses to the single
    core's speedup; for mixes each member contributes its own ratio.
    """
    if len(cores) != len(baselines):
        raise SimulationError(
            f"core count mismatch: {len(cores)} vs {len(baselines)}"
        )
    if not cores:
        raise SimulationError("need at least one core")
    total = sum(c.ips / b.ips for c, b in zip(cores, baselines))
    return total / len(cores)
