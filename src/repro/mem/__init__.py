"""Cycle-level memory device models: DRAM banks/channels, NVM, scheduling.

:class:`repro.mem.dram.DramDevice` and :class:`repro.mem.nvm.NvmDevice`
model banks, row buffers and an FR-FCFS scheduler. They back the
detailed and scheduled engines (:mod:`repro.sim.detailed`,
:mod:`repro.sim.scheduled`) that cross-check the interval timing model;
the interval model itself (:mod:`repro.sim.timing_model`) needs none of
them.
"""

from repro.mem.bank import Bank
from repro.mem.channel import Channel
from repro.mem.dram import DramDevice
from repro.mem.nvm import NvmDevice
from repro.mem.scheduler import FrFcfsScheduler

__all__ = [
    "Bank",
    "Channel",
    "DramDevice",
    "NvmDevice",
    "FrFcfsScheduler",
]
