"""Observer-path equivalence: events, inlined counters and engines agree.

The access path keeps :class:`~repro.sim.stats.CacheStats` with inlined
counter updates and emits typed events only when an observer is
registered. Three ways of computing one run must therefore agree, for
every benchmark design variant on randomized traces:

1. the engine ``auto`` resolves to (an array kernel for most designs),
   with no observer attached;
2. the per-access drive with an observer attached, which forces the
   event-emitting path through ``read_split``/``writeback_split``;
3. a :class:`~repro.cache.events.StatsObserver` rebuilding the counters
   from that event stream alone.

The engine matrix in ``tests/test_engines.py`` pins each engine to the
reference loop; this module pins the event stream to the counters.
"""

import warnings

import pytest

from repro.cache.events import StatsObserver
from repro.core.accord import AccordDesign
from repro.core.steering import UnbiasedSteering
from repro.params.system import scaled_system
from repro.sim.bench import BENCH_DESIGNS
from repro.sim.engines import ENGINES, TraceStream, serial_segments
from repro.sim.system import Simulator, build_dram_cache
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64


def random_trace(seed: int, n: int = 3000, footprint_lines: int = 700) -> Trace:
    """A randomized mixed read/write trace over a small footprint.

    The footprint is a few times the test cache capacity so hits,
    misses, evictions and writeback bypasses all occur.
    """
    rng = XorShift64(seed)
    addrs = []
    writes = bytearray()
    for _ in range(n):
        addrs.append(rng.next_below(footprint_lines) * 64)
        writes.append(1 if rng.next_below(4) == 0 else 0)
    return Trace(f"random-{seed}", addrs, writes, instructions_per_access=40.0)


def _design_id(design):
    return design.display_name.replace(" ", "_")


@pytest.fixture(scope="module", params=[101, 202])
def trace(request):
    t = random_trace(request.param)
    assert any(t.writes) and not all(t.writes)
    return t


class TestFastPathEquivalence:
    """All 16 benchmark design variants: one result however computed."""

    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_fast_path_matches_per_address_loop(self, design, trace):
        """The split-column drive equals the per-address loop (the CA
        cache has no access path and falls back to the loop itself)."""
        config = scaled_system(ways=design.ways, scale=1.0 / 2048.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            split = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=0.3, engine="stream"
            )
        loop = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="loop"
        )
        assert split.to_dict() == loop.to_dict()

    @pytest.mark.parametrize(
        "design",
        [d for d in BENCH_DESIGNS if d.kind != "ca"],
        ids=_design_id,
    )
    def test_fast_path_matches_event_observed_path(self, design, trace):
        """Unobserved run == observed run == counters rebuilt from events.

        The observer both forces the event-emitting path and
        independently rebuilds the counters from the event stream, so
        one run checks the inlined counters against the events and the
        comparison checks the unobserved engine against both. Zero
        warmup: the shadow observer sees the whole trace, while the
        cache's counters reset at the warm boundary, so the streams only
        align over a full-trace window.
        """
        config = scaled_system(ways=design.ways, scale=1.0 / 2048.0)
        plain = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.0
        )
        observed_sim = Simulator(config, design, seed=5)
        shadow = StatsObserver()
        observed_sim.cache.add_observer(shadow)
        observed = observed_sim.run(trace, warmup_fraction=0.0)
        assert plain.to_dict() == observed.to_dict()
        assert shadow.stats.to_dict() == observed.stats.to_dict()

    @pytest.mark.parametrize(
        "design",
        [d for d in BENCH_DESIGNS if d.kind != "ca"],
        ids=_design_id,
    )
    def test_observed_fallback_matches_fast_path_with_warmup(self, design, trace):
        """Observed and unobserved runs agree across the warmup counter
        reset too (shadow totals aside)."""
        config = scaled_system(ways=design.ways, scale=1.0 / 2048.0)
        plain = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3
        )
        observed_sim = Simulator(config, design, seed=5)
        observed_sim.cache.add_observer(StatsObserver())
        observed = observed_sim.run(trace, warmup_fraction=0.3)
        assert plain.to_dict() == observed.to_dict()

    def test_zero_warmup_and_full_trace_windows_agree(self, trace):
        design = AccordDesign("accord", ways=2)
        config = scaled_system(ways=2, scale=1.0 / 2048.0)
        for warmup in (0.0, 0.5, 0.9):
            auto = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=warmup
            )
            loop = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=warmup, engine="loop"
            )
            assert auto.to_dict() == loop.to_dict()


class TestRunStream:
    """The split-column ``stream`` engine's per-access drive."""

    def test_generator_candidates_still_work(self, trace):
        """A steering policy may return one-shot iterables; the access
        path must materialize them once."""

        class GeneratorSteering(UnbiasedSteering):
            def candidate_ways(self, set_index, tag):
                return (way for way in range(self.ways))

            def choose_install_way(self, set_index, tag, addr, store, replacement):
                # The install path (like the reference UnbiasedSteering)
                # needs an indexable sequence; the one-shot contract the
                # access path must honor is on the lookup/probe side.
                candidates = tuple(self.candidate_ways(set_index, tag))
                return replacement.victim(set_index, candidates, store)

        design = AccordDesign("unbiased", ways=2)
        config = scaled_system(ways=2, scale=1.0 / 2048.0)
        reference = build_dram_cache(design, config, seed=3)
        patched = build_dram_cache(design, config, seed=3)
        patched.steering = GeneratorSteering(patched.geometry)
        for cache in (reference, patched):
            ENGINES["stream"].drive(
                cache, TraceStream(trace, cache.geometry), 0,
                serial_segments(trace, 0, None), None,
            )
        assert reference.stats.to_dict() == patched.stats.to_dict()
