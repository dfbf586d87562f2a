"""Stateful property-based tests on DRAM-cache invariants.

A hypothesis state machine drives an ACCORD cache with arbitrary
interleavings of reads and writebacks, checking after every step that:

* a line just read is resident, in a way its steering policy allows;
* the DCP directory exactly mirrors residency (exact directory mode);
* counters satisfy their accounting identities.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache.geometry import CacheGeometry
from repro.core.accord import AccordDesign, make_design

_CAPACITY = 64 * 1024
_NUM_LINES = _CAPACITY // 64
# Address pool spans 4x the cache so evictions and conflicts happen.
_ADDRS = st.integers(min_value=0, max_value=4 * _NUM_LINES - 1)


class DramCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        geometry = CacheGeometry(_CAPACITY, 2)
        self.cache = make_design(AccordDesign(kind="accord", ways=2), geometry, seed=9)
        self.geometry = geometry
        self.resident_model = {}  # line -> True (mirror of expected residency)

    @rule(line=_ADDRS)
    def read(self, line):
        addr = line * 64
        outcome = self.cache.read(addr)
        # After a read the line is resident, whatever the outcome was.
        set_index, tag = self.geometry.split(addr)
        way = self.cache.store.find_way(set_index, tag)
        assert way in self.cache.steering.candidate_ways(set_index, tag)
        if outcome.hit:
            assert not outcome.nvm_read

    @rule(line=_ADDRS)
    def writeback(self, line):
        addr = line * 64
        set_index, tag = self.geometry.split(addr)
        way = self.cache.store.find_way(set_index, tag)
        absorbed = self.cache.writeback(addr)
        assert absorbed == (way is not None)
        if absorbed:
            assert self.cache.store.is_dirty(set_index, way)

    @invariant()
    def counters_consistent(self):
        stats = self.cache.stats
        assert stats.hits + stats.misses == stats.demand_reads
        assert stats.misses == stats.installs == stats.nvm_reads
        assert stats.correct_predictions <= stats.predicted_hits <= stats.hits
        assert stats.first_probes == stats.demand_reads
        assert stats.writeback_direct + stats.writeback_bypass == stats.writebacks_in

    @invariant()
    def dcp_mirrors_store(self):
        # Every DCP entry points at a slot whose tag matches the line.
        dcp = self.cache.dcp
        for line_addr, way in list(dcp._way_of.items())[:32]:
            addr = line_addr * 64
            set_index, tag = self.geometry.split(addr)
            assert self.cache.store.tag_at(set_index, way) == tag


DramCacheMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestDramCacheStateMachine = DramCacheMachine.TestCase
