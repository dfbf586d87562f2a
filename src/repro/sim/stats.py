"""Event counters shared by the cache models and the timing model.

The counters deliberately separate *serialized* probe accesses (which
add latency: each dependent DRAM access in a serial/way-predicted
lookup) from *transfers* (which add bandwidth: every 72B tag+data unit
moved on the stacked-DRAM bus), because the paper's Table I costs the
two dimensions independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, FrozenSet, Tuple


@dataclass
class CacheStats:
    """Counters accumulated over one simulation run."""

    # demand stream
    demand_reads: int = 0
    writebacks_in: int = 0

    # outcomes
    hits: int = 0
    misses: int = 0

    # way prediction (evaluated on hits only, per the paper's metric)
    predicted_hits: int = 0
    correct_predictions: int = 0

    # serialized DRAM-cache accesses for demand reads
    first_probes: int = 0
    # Follow-up probes (same row buffer), split by outcome: probes that
    # eventually found the line add serialized latency; probes that only
    # confirmed a miss overlap the speculative NVM fetch and cost
    # bandwidth alone (the transfer is still counted).
    hit_extra_probes: int = 0
    miss_extra_probes: int = 0

    # 72B tag+data transfers on the stacked-DRAM bus
    cache_read_transfers: int = 0
    cache_write_transfers: int = 0
    replacement_update_transfers: int = 0
    swap_transfers: int = 0  # CA-cache line swaps

    # fills / evictions
    installs: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    # main memory (NVM) traffic in 64B lines
    nvm_reads: int = 0
    nvm_writes: int = 0

    # writeback handling
    writeback_probe_accesses: int = 0
    writeback_direct: int = 0
    writeback_bypass: int = 0

    extras: Dict[str, int] = field(default_factory=dict)

    # -- derived metrics ----------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def extra_probes(self) -> int:
        """All follow-up probes regardless of outcome."""
        return self.hit_extra_probes + self.miss_extra_probes

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of hits whose first probe found the line."""
        return (
            self.correct_predictions / self.predicted_hits
            if self.predicted_hits
            else 0.0
        )

    @property
    def total_cache_transfers(self) -> int:
        return (
            self.cache_read_transfers
            + self.cache_write_transfers
            + self.replacement_update_transfers
            + self.swap_transfers
        )

    @property
    def probes_per_read(self) -> float:
        """Average serialized DRAM accesses per demand read."""
        if not self.demand_reads:
            return 0.0
        return (self.first_probes + self.extra_probes) / self.demand_reads

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a free-form extra counter."""
        self.extras[name] = self.extras.get(name, 0) + amount

    def to_dict(self) -> Dict[str, object]:
        """Raw counters only (no derived metrics); inverse of :meth:`from_dict`."""
        out: Dict[str, object] = dict(
            zip(_COUNTER_FIELDS, _get_counters(self))
        )
        out["extras"] = dict(self.extras)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CacheStats":
        """Rebuild a stats block from :meth:`to_dict` output."""
        if not _STATS_FIELDS.issuperset(data):
            unknown = set(data) - _STATS_FIELDS
            raise ValueError(f"unknown CacheStats fields: {sorted(unknown)}")
        kwargs = dict(data)
        extras = kwargs.pop("extras", {})
        stats = cls(**{k: int(v) for k, v in kwargs.items()})
        stats.extras = {str(k): int(v) for k, v in dict(extras).items()}
        return stats

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of raw and derived values (for reports)."""
        out: Dict[str, float] = dict(zip(_COUNTER_FIELDS, _get_counters(self)))
        out.update(self.extras)
        out["hit_rate"] = self.hit_rate
        out["prediction_accuracy"] = self.prediction_accuracy
        out["total_cache_transfers"] = self.total_cache_transfers
        out["probes_per_read"] = self.probes_per_read
        return out


#: The integer counter fields, in declaration order (``extras``, the last
#: field, is the one non-counter). Serialization reads these names
#: instead of introspecting the dataclass on every call.
_COUNTER_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(CacheStats) if f.name != "extras"
)
_get_counters = attrgetter(*_COUNTER_FIELDS)
_STATS_FIELDS: FrozenSet[str] = frozenset(_COUNTER_FIELDS) | {"extras"}
