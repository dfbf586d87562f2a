"""Scheduler-driven detailed engine.

A step up in fidelity from :class:`repro.sim.detailed.DetailedEngine`:
memory commands flow through per-channel FR-FCFS queues
(:class:`repro.mem.scheduler.FrFcfsScheduler`), so row-buffer-aware
reordering, queue-capacity back-pressure and bank-level parallelism are
modelled explicitly. Used for row-buffer/scheduling micro-studies and
to validate the interval model's queueing term under contention; far
too slow for the full experiment sweeps.

The engine is event-driven: a command is issued to a channel whenever
that channel's bus is free and its queue holds a ready command; FR-FCFS
picks row hits first, oldest first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.mem.dram import SETS_PER_ROW, DramDevice
from repro.mem.scheduler import FrFcfsScheduler
from repro.params.system import SystemConfig, TRANSFER_BYTES
from repro.sim.trace import Trace


@dataclass
class _Command:
    """One DRAM-cache column access belonging to a request."""

    request_id: int
    set_index: int


@dataclass
class ScheduledResult:
    """Aggregate outcome of a scheduler-driven replay."""

    total_ns: float
    requests: int
    total_latency_ns: float
    row_hit_rate: float
    max_queue_depth: int
    stalled_cycles: int  # enqueue attempts that hit a full queue

    @property
    def avg_latency_ns(self) -> float:
        return self.total_latency_ns / self.requests if self.requests else 0.0


class ScheduledEngine:
    """Replays DRAM-cache set accesses through FR-FCFS channel queues."""

    def __init__(self, config: SystemConfig, queue_capacity: int = 32):
        self.config = config
        self.dram = DramDevice(config.dram_timing, config.dram_bus)
        self.num_channels = len(self.dram.channels)
        self.queues = [FrFcfsScheduler(queue_capacity) for _ in range(self.num_channels)]
        self.max_queue_depth = 0
        self.stalled = 0

    # -- mapping helpers ---------------------------------------------------

    def _channel_of(self, set_index: int) -> int:
        row_group = set_index // SETS_PER_ROW
        return row_group % self.num_channels

    def _bank_key(self, set_index: int) -> Tuple[int, int]:
        row_group = set_index // SETS_PER_ROW
        channel = row_group % self.num_channels
        per_channel = row_group // self.num_channels
        bank = per_channel % self.dram.num_banks_per_channel
        return channel, bank

    def _row_of(self, set_index: int) -> int:
        row_group = set_index // SETS_PER_ROW
        per_channel = row_group // self.num_channels
        return per_channel // self.dram.num_banks_per_channel

    def _open_row(self, bank_key: Tuple[int, int]) -> int:
        channel, bank = bank_key
        return self.dram.channels[channel].banks[bank].open_row

    # -- replay --------------------------------------------------------------

    def replay_sets(
        self,
        set_indices: List[int],
        arrival_interval_ns: float = 5.0,
    ) -> ScheduledResult:
        """Issue one column access per set index, in arrival order.

        Returns per-request latency statistics under FR-FCFS
        scheduling. ``arrival_interval_ns`` controls offered load.
        """
        if arrival_interval_ns <= 0:
            raise SimulationError("arrival interval must be positive")
        if not set_indices:
            raise SimulationError("nothing to replay")

        completion: Dict[int, float] = {}
        arrival: Dict[int, float] = {}
        now = 0.0

        def drain(channel_index: int, until_ns: float) -> None:
            """Issue queued commands on one channel up to a deadline."""
            queue = self.queues[channel_index]
            channel = self.dram.channels[channel_index]
            while len(queue):
                if channel.bus_busy_until_ns > until_ns:
                    break
                command = queue.pop_next(self._open_row)
                if command is None:
                    break
                chan, bank = self._bank_key(command.set_index)
                response = channel.access(
                    bank, self._row_of(command.set_index), TRANSFER_BYTES,
                    max(channel.bus_busy_until_ns, arrival[command.request_id]),
                )
                completion[command.request_id] = response.ready_ns

        for request_id, set_index in enumerate(set_indices):
            now = request_id * arrival_interval_ns
            channel_index = self._channel_of(set_index)
            queue = self.queues[channel_index]
            while queue.full:
                # Back-pressure: drain the channel before accepting more.
                self.stalled += 1
                drain(channel_index, float("inf"))
            arrival[request_id] = now
            queue.enqueue(
                _Command(request_id, set_index), now,
                self._bank_key(set_index), self._row_of(set_index),
            )
            self.max_queue_depth = max(self.max_queue_depth, len(queue))
            drain(channel_index, now)

        for channel_index in range(self.num_channels):
            drain(channel_index, float("inf"))

        missing = set(range(len(set_indices))) - set(completion)
        if missing:
            raise SimulationError(f"requests never completed: {sorted(missing)[:5]}")

        total_latency = sum(
            completion[rid] - arrival[rid] for rid in range(len(set_indices))
        )
        return ScheduledResult(
            total_ns=max(completion.values()),
            requests=len(set_indices),
            total_latency_ns=total_latency,
            row_hit_rate=self.dram.row_hit_rate(),
            max_queue_depth=self.max_queue_depth,
            stalled_cycles=self.stalled,
        )

    def replay_trace(self, trace: Trace, geometry, arrival_interval_ns: float = 5.0):
        """Convenience: map a trace's addresses to sets and replay."""
        sets = [geometry.set_index(addr) for addr in trace.scalar_columns()[0]]
        return self.replay_sets(sets, arrival_interval_ns)
