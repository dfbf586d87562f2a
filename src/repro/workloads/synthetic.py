"""Synthetic trace generator engine.

Generates the L3-miss-level request stream for one workload as a
sequence of *region bursts*:

* With probability ``conflict_frac`` the burst targets the next page of
  a round-robin **conflict group** — ``conflict_degree`` pages whose
  addresses differ by exactly the cache capacity, so their lines alias
  in every set-associative organization of that capacity. Cycling
  through a degree-2 group is the paper's (a,b)^N pattern at page
  granularity: it thrashes a direct-mapped cache but co-resides in a
  2-way cache, which is what makes a workload associativity-sensitive.
* Otherwise the burst targets a page drawn from a log-skewed reuse
  distribution over the workload's footprint (``reuse`` sharpens or
  flattens the skew), scattered across the footprint by a hash so hot
  pages do not cluster in adjacent sets.

Within the chosen page the burst touches ``run`` consecutive lines
(``run`` ~ exponential with the spec's ``region_run`` mean), producing
the spatial locality that GWS exploits. Dirty writebacks are emitted at
rate ``write_frac`` against recently read lines.

The trace comes back array-backed (int64 addresses, uint8 write
flags): the records are collected in a compact ``array('q')`` and a
``bytearray`` as they are drawn, so neither the generator nor the
trace memos that keep the result ever hold a Python int per access.
"""

from __future__ import annotations

import math
from array import array
from typing import List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.params.system import PAGE_SIZE
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64, mix64
from repro.workloads.spec import WorkloadSpec

LINE = 64
LINES_PER_PAGE = PAGE_SIZE // LINE
_RECENT_CAPACITY = 1024
_CONFLICT_GROUPS = 32


class SyntheticWorkload:
    """Stateful generator producing the request stream of one workload."""

    def __init__(
        self,
        spec: WorkloadSpec,
        cache_capacity_bytes: int,
        seed: int = 1,
        addr_base: int = 0,
    ):
        if cache_capacity_bytes <= 0:
            raise WorkloadError("cache capacity must be positive")
        if addr_base % cache_capacity_bytes != 0:
            raise WorkloadError(
                "addr_base must be a multiple of the cache capacity so that "
                "set-aliasing is preserved under the offset"
            )
        self.spec = spec
        self.capacity = cache_capacity_bytes
        self.addr_base = addr_base
        self._rng = XorShift64(seed)
        self._salt = mix64(seed ^ 0xFEED)

        self.num_pages = max(spec.footprint_bytes // PAGE_SIZE, 16)
        # Conflict groups live above the regular footprint, aligned so
        # that group members differ by exactly one cache capacity.
        conflict_base_page = -(-self.num_pages * PAGE_SIZE // self.capacity) + 1
        self._conflict_base = conflict_base_page * self.capacity
        self._conflict_next: List[int] = [0] * _CONFLICT_GROUPS

        self._recent: List[int] = []
        self._recent_pos = 0

        mean_run = min(spec.region_run, float(LINES_PER_PAGE))
        self._run_scale = max(mean_run - 1.0, 0.0)

    # -- page selection -------------------------------------------------

    def _conflict_page_addr(self) -> int:
        """Next page of a round-robin conflict group."""
        group = self._rng.next_below(_CONFLICT_GROUPS)
        member = self._conflict_next[group]
        degree = self.spec.conflict_degree
        self._conflict_next[group] = (member + 1) % degree
        return self._conflict_base + group * PAGE_SIZE + member * self.capacity

    def _regular_page_addr(self) -> int:
        """Page from the log-skewed reuse distribution, hash-scattered."""
        u = self._rng.next_float()
        skew = u ** self.spec.reuse
        rank = int(self.num_pages ** skew) - 1
        rank = min(max(rank, 0), self.num_pages - 1)
        slot = mix64(rank ^ self._salt) % self.num_pages
        return slot * PAGE_SIZE

    # -- burst generation -------------------------------------------------

    def _run_length(self) -> int:
        if self._run_scale <= 0.0:
            return 1
        u = self._rng.next_float()
        run = 1 + int(-self._run_scale * math.log(1.0 - u))
        return min(run, LINES_PER_PAGE)

    def _remember(self, addr: int) -> None:
        if len(self._recent) < _RECENT_CAPACITY:
            self._recent.append(addr)
        else:
            self._recent[self._recent_pos] = addr
            self._recent_pos = (self._recent_pos + 1) % _RECENT_CAPACITY

    def generate(self, num_accesses: int, name: Optional[str] = None) -> Trace:
        """Produce a trace with approximately ``num_accesses`` requests."""
        if num_accesses <= 0:
            raise WorkloadError("num_accesses must be positive")
        spec = self.spec
        rng = self._rng
        addrs = array("q")
        writes = bytearray()
        base = self.addr_base

        while len(addrs) < num_accesses:
            if spec.conflict_frac > 0 and rng.next_bool(spec.conflict_frac):
                page_addr = self._conflict_page_addr()
            else:
                page_addr = self._regular_page_addr()
            run = self._run_length()
            positions = max(LINES_PER_PAGE - run + 1, 1)
            # Align run starts to run-sized strides (array-walk behaviour):
            # pages get fully covered after a few visits, so line-granular
            # cold misses saturate quickly instead of trickling in forever.
            start = (rng.next_below(positions) // run) * run
            for i in range(run):
                addr = base + page_addr + (start + i) * LINE
                addrs.append(addr)
                writes.append(0)
                self._remember(addr)
                if spec.write_frac > 0 and rng.next_bool(spec.write_frac):
                    victim = self._recent[rng.next_below(len(self._recent))]
                    addrs.append(victim)
                    writes.append(1)

        return Trace(
            name=name or spec.name,
            addrs=np.frombuffer(addrs, dtype=np.int64),
            writes=np.frombuffer(writes, dtype=np.uint8),
            instructions_per_access=spec.instructions_per_access,
        )
