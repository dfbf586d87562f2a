"""Tests for the access-event stream and the stats-observer equivalence.

The load-bearing test here is the equivalence sweep: for every design
kind, a :class:`StatsObserver` rebuilding `CacheStats` purely from the
event stream must be bit-identical to the cache's own inlined counters
on a mixed read/write trace. The inlined fast path and the event
pipeline are two implementations of one specification; this pins them
together.
"""

import pytest

from repro.cache.dram_cache import DramCache
from repro.cache.events import EvictEvent, FillEvent, LookupEvent, StatsObserver, WritebackEvent
from repro.cache.geometry import CacheGeometry
from repro.cache.lookup import SerialLookup, WayPredictedLookup
from repro.cache.replacement import RandomReplacement
from repro.core.accord import AccordDesign
from repro.core.prediction import StaticPreferredPredictor
from repro.core.steering import DirectMappedSteering, UnbiasedSteering
from repro.params.system import scaled_system
from repro.sim.runner import TraceFactory
from repro.sim.system import build_dram_cache
from repro.utils.rng import XorShift64


class Recorder:
    """Observer that records every event in arrival order."""

    def __init__(self):
        self.events = []

    def on_lookup(self, event):
        self.events.append(event)

    def on_fill(self, event):
        self.events.append(event)

    def on_evict(self, event):
        self.events.append(event)

    def on_writeback(self, event):
        self.events.append(event)


def make_cache(ways=2, lookup=None, predictor="static", dcp="default",
               capacity=8 * 1024):
    geometry = CacheGeometry(capacity, ways)
    if predictor == "static":
        predictor = StaticPreferredPredictor(geometry)
    steering = (
        DirectMappedSteering(geometry) if ways == 1 else UnbiasedSteering(geometry)
    )
    return DramCache(
        geometry,
        lookup=lookup or (SerialLookup() if predictor is None
                          else WayPredictedLookup()),
        steering=steering,
        predictor=predictor,
        replacement=RandomReplacement(XorShift64(3)),
        dcp=dcp,
        prefill=False,
    )


class TestEventStream:
    def test_miss_emits_lookup_then_fill(self):
        cache, recorder = make_cache(), Recorder()
        cache.add_observer(recorder)
        outcome = cache.read(0x1000)
        kinds = [type(e) for e in recorder.events]
        assert kinds == [LookupEvent, FillEvent]
        lookup, fill = recorder.events
        assert not lookup.hit
        assert lookup.addr == 0x1000
        assert fill.addr == 0x1000
        assert fill.way == outcome.way
        assert not fill.dirty

    def test_hit_emits_single_lookup(self):
        cache, recorder = make_cache(), Recorder()
        cache.read(0x1000)
        cache.add_observer(recorder)
        outcome = cache.read(0x1000)
        (event,) = recorder.events
        assert isinstance(event, LookupEvent)
        assert event.hit
        assert event.way == outcome.way
        assert event.predicted_way is not None  # way-predicted lookup

    def test_conflict_emits_evict_between_lookup_and_fill(self):
        cache, recorder = make_cache(ways=1, predictor=None), Recorder()
        span = cache.geometry.num_sets * cache.geometry.line_size
        cache.read(0x0)
        cache.add_observer(recorder)
        cache.read(span)  # same set, different tag: evicts 0x0
        kinds = [type(e) for e in recorder.events]
        assert kinds == [LookupEvent, EvictEvent, FillEvent]
        evict = recorder.events[1]
        assert evict.victim_tag == cache.geometry.split(0x0)[1]
        assert not evict.dirty

    def test_dirty_eviction_flagged(self):
        cache, recorder = make_cache(ways=1, predictor=None), Recorder()
        span = cache.geometry.num_sets * cache.geometry.line_size
        cache.read(0x0)
        cache.writeback(0x0)
        cache.add_observer(recorder)
        cache.read(span)
        evict = [e for e in recorder.events if isinstance(e, EvictEvent)][0]
        assert evict.dirty

    def test_absorbed_writeback_event(self):
        cache, recorder = make_cache(), Recorder()
        cache.read(0x3000)
        cache.add_observer(recorder)
        assert cache.writeback(0x3000)
        (event,) = recorder.events
        assert isinstance(event, WritebackEvent)
        assert event.absorbed and event.dcp_hit
        assert event.probes == 0
        assert event.way == cache.store.find_way(*cache.geometry.split(0x3000))

    def test_bypassed_writeback_event(self):
        cache, recorder = make_cache(), Recorder()
        cache.add_observer(recorder)
        assert not cache.writeback(0x4000)
        (event,) = recorder.events
        assert not event.absorbed
        assert event.bypassed_by_dcp  # exact DCP: miss proves absence
        assert event.probes == 0 and event.way is None

    def test_probed_writeback_event(self):
        cache, recorder = make_cache(dcp=None), Recorder()
        cache.read(0x3000)
        cache.add_observer(recorder)
        assert cache.writeback(0x3000)
        (event,) = recorder.events
        assert event.absorbed and not event.dcp_hit
        assert 1 <= event.probes <= cache.geometry.ways

    def test_remove_observer_stops_events(self):
        cache, recorder = make_cache(), Recorder()
        cache.add_observer(recorder)
        assert recorder in cache.observers
        cache.remove_observer(recorder)
        assert cache.observers == ()
        cache.read(0x1000)
        assert recorder.events == []
        cache.remove_observer(recorder)  # second removal is a no-op

    def test_multiple_observers_see_same_stream(self):
        cache = make_cache()
        first, second = Recorder(), Recorder()
        cache.add_observer(first)
        cache.add_observer(second)
        cache.read(0x1000)
        cache.writeback(0x1000)
        assert first.events == second.events


# Every design kind with an event-emitting access path ("ca" is the
# probe-less column-associative baseline and has no observer surface),
# plus the DCP and replacement variants that exercise different flows.
EQUIV_DESIGNS = [
    AccordDesign("direct", ways=1),
    AccordDesign("parallel", ways=2),
    AccordDesign("serial", ways=4),
    AccordDesign("unbiased", ways=2),
    AccordDesign("pws", ways=2),
    AccordDesign("gws", ways=2),
    AccordDesign("accord", ways=2),
    AccordDesign("accord", ways=2, dcp="finite"),
    AccordDesign("accord", ways=2, dcp="none"),
    AccordDesign("accord", ways=2, replacement="lru"),
    AccordDesign("sws", ways=8, hashes=2),
    AccordDesign("dueling", ways=2),
    AccordDesign("mru", ways=2),
    AccordDesign("partial_tag", ways=2),
    AccordDesign("perfect", ways=2),
    AccordDesign("ideal", ways=2),
]


def _design_id(design):
    return f"{design.kind}-{design.ways}w-{design.dcp}-{design.replacement}"


@pytest.fixture(scope="module")
def mixed_setup():
    """One small mixed read/write trace shared by the equivalence sweep."""
    config = scaled_system(ways=1, scale=1.0 / 2048.0)
    trace = TraceFactory(config, 4000, seed=11).trace_for("soplex")
    assert any(trace.writes), "equivalence needs a mixed trace"
    return config, trace


def _replay(cache, trace):
    for addr, is_write in zip(trace.addrs, trace.writes):
        if is_write:
            cache.writeback(addr)
        else:
            cache.read(addr)


class TestStatsEquivalence:
    @pytest.mark.parametrize("design", EQUIV_DESIGNS, ids=_design_id)
    def test_observer_stats_match_inline_counters(self, design, mixed_setup):
        config, trace = mixed_setup
        cache = build_dram_cache(design, config, seed=3)
        shadow = StatsObserver()
        cache.add_observer(shadow)
        _replay(cache, trace)
        assert shadow.stats.to_dict() == cache.stats.to_dict()

    @pytest.mark.parametrize("design", [
        AccordDesign("accord", ways=2),
        AccordDesign("sws", ways=8, hashes=2),
        AccordDesign("unbiased", ways=2),
    ], ids=_design_id)
    def test_observers_do_not_perturb_the_simulation(self, design, mixed_setup):
        config, trace = mixed_setup
        bare = build_dram_cache(design, config, seed=3)
        observed = build_dram_cache(design, config, seed=3)
        observed.add_observer(StatsObserver())
        _replay(bare, trace)
        _replay(observed, trace)
        assert bare.stats.to_dict() == observed.stats.to_dict()
