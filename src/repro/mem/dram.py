"""Stacked-DRAM (HBM) cache device for the detailed engine.

Address mapping follows the paper's organization: all ways of one cache
set live in the same row buffer (Figure 2b), so checking a second way
after a way mispredict is usually a row-buffer hit. Consecutive sets are
interleaved across channels and banks for parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigError
from repro.mem.channel import Channel
from repro.mem.request import DeviceResponse
from repro.params.system import TRANSFER_BYTES
from repro.params.timing import BusConfig, DramTiming

SETS_PER_ROW = 32  # 72B units per 2KB-ish row buffer region per way


@dataclass
class DramDevice:
    """HBM stack organized as channels x banks with row buffers."""

    timing: DramTiming
    bus: BusConfig
    num_banks_per_channel: int = 16
    channels: List[Channel] = field(default_factory=list)

    def __post_init__(self):
        if not self.channels:
            self.channels = [
                Channel(self.timing, self.bus, self.num_banks_per_channel)
                for _ in range(self.bus.channels)
            ]

    def _map(self, set_index: int) -> tuple:
        """Map a cache set to (channel, bank, row).

        Sets are first grouped into rows (ways co-located), then rows are
        striped over channels and banks.
        """
        row_group = set_index // SETS_PER_ROW
        channel = row_group % len(self.channels)
        per_channel = row_group // len(self.channels)
        bank = per_channel % self.num_banks_per_channel
        row = per_channel // self.num_banks_per_channel
        return channel, bank, row

    def access_set(
        self, set_index: int, num_lines: int, now_ns: float
    ) -> DeviceResponse:
        """Read/write ``num_lines`` 72B tag+data units from one set's row."""
        if num_lines <= 0:
            raise ConfigError("must access at least one line")
        channel_idx, bank, row = self._map(set_index)
        return self.channels[channel_idx].access(
            bank, row, num_lines * TRANSFER_BYTES, now_ns
        )

    def row_hit_rate(self) -> float:
        totals = [c.row_hit_rate() for c in self.channels if any(
            b.total_accesses for b in c.banks)]
        if not totals:
            return 0.0
        return sum(totals) / len(totals)

    @property
    def bytes_transferred(self) -> int:
        return sum(c.bytes_transferred for c in self.channels)

