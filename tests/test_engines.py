"""Engine-layer equivalence and resolver contract.

The drive path is pluggable (:mod:`repro.sim.engines`): the per-address
reference loop, the per-access split-column drive, and the whole-trace
vector and sparse-replay kernels are implementations of one
specification. The matrix below pins all of them bit-identical —
``CacheStats``, the whole ``RunResult`` and the phase series — for every
benchmark design variant and every replacement policy, on randomized
traces. That equivalence
is what licenses excluding the engine from :meth:`JobKey.canonical`:
a result computed under any engine satisfies the same key.
"""

import multiprocessing
import os
import warnings

import pytest

from repro.cache.dcp import FiniteDcpDirectory
from repro.cache.events import StatsObserver
from repro.core.accord import DESIGN_KINDS, AccordDesign
from repro.core.protocols import ensure_policy_conformance
from repro.core.sws import SkewedWaySteering
from repro.errors import ConfigError, SimulationError
from repro.exec.jobs import JobKey, parse_design_spec
from repro.params.system import scaled_system
from repro.sim.bench import BENCH_DESIGNS
from repro.sim.engines import (
    ENGINE_NAMES,
    ENGINES,
    WORKER_ENV,
    TraceStream,
    in_worker_process,
    mark_worker_process,
    resolve_engine,
    serial_segments,
)
from repro.sim.system import Simulator, build_dram_cache
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64

SCALE = 1.0 / 2048.0
EPOCH = 500


def random_trace(seed: int, n: int = 3000, footprint_lines: int = 700) -> Trace:
    """Randomized mixed read/write trace over a small footprint."""
    rng = XorShift64(seed)
    addrs = []
    writes = bytearray()
    for _ in range(n):
        addrs.append(rng.next_below(footprint_lines) * 64)
        writes.append(1 if rng.next_below(4) == 0 else 0)
    return Trace(f"random-{seed}", addrs, writes, instructions_per_access=40.0)


def conflict_trace(seed: int, n: int = 3000, sets: int = 48,
                   tags: int = 7) -> Trace:
    """Randomized trace whose lines crowd a few sets.

    Each of ``sets`` sets sees ``tags`` distinct lines (skewed towards
    low tags), more than the ways of any test cache, so victims are
    real lines and the victim rule decides hits: LRU order, NRU
    rollover, and SRRIP aging with several stale ways all occur.
    """
    rng = XorShift64(seed)
    addrs = []
    writes = bytearray()
    for _ in range(n):
        tag = min(rng.next_below(tags), rng.next_below(tags))
        addrs.append((rng.next_below(sets) + (tag << 14)) * 64)
        writes.append(1 if rng.next_below(4) == 0 else 0)
    return Trace(f"conflict-{seed}", addrs, writes, instructions_per_access=40.0)


#: Replacement-policy variants. Unbiased steering consults the victim
#: rule on every fill (2-way, and 4-way serial for SRRIP aging and NRU
#: rollover with several stale ways); under PWS the policy's only
#: effect is its per-hit transfer charge.
REPLACEMENT_SPECS = (
    "unbiased:2:replacement=lru",
    "unbiased:2:replacement=nru",
    "unbiased:2:replacement=rrip",
    "serial:4:replacement=rrip",
    "serial:4:replacement=nru",
    "pws:2:replacement=lru",
)


def _design_id(design):
    name = design.display_name.replace(" ", "_")
    return f"{name}-finite_dcp" if design.dcp == "finite" else name


@pytest.fixture(scope="module")
def trace():
    t = random_trace(310)
    assert any(t.writes) and not all(t.writes)
    return t


@pytest.fixture(scope="module")
def loop_reference(trace):
    """Per-design loop-engine serial results, computed once (with phases)."""
    memo = {}

    def get(design):
        key = design.display_name
        if key not in memo:
            config = scaled_system(ways=design.ways, scale=SCALE)
            memo[key] = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=0.3, epoch=EPOCH, engine="loop"
            ).to_dict()
        return memo[key]

    return get


class TestEngineEquivalenceMatrix:
    """16 designs x {stream, vector, replay}, each against the loop.

    Unsupported explicit requests fall down the chain (with a warning we
    silence here), so every cell is still a valid exactness check: the
    engine that actually ran must reproduce the reference loop.
    """

    @pytest.mark.parametrize("engine", ["stream", "vector", "replay"])
    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_serial_engines_match_loop(self, design, engine, trace,
                                       loop_reference):
        config = scaled_system(ways=design.ways, scale=SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=0.3, epoch=EPOCH, engine=engine
            )
        assert result.to_dict() == loop_reference(design)

    def test_design_set_covers_every_kind(self):
        assert {d.kind for d in BENCH_DESIGNS} == set(DESIGN_KINDS)


@pytest.fixture(scope="module")
def conflict():
    return conflict_trace(310)


class TestReplacementMatrix:
    """Every replacement policy x {vector, stream}, against the loop."""

    def _run(self, spec, trace, engine, warmup=0.3, observer=None):
        design = parse_design_spec(spec)
        config = scaled_system(ways=design.ways, scale=SCALE)
        simulator = Simulator(config, design, seed=5)
        if observer is not None:
            simulator.cache.add_observer(observer)
        return simulator.run(
            trace, warmup_fraction=warmup, epoch=EPOCH, engine=engine,
            engine_strict=engine != "auto",
        )

    @pytest.mark.parametrize("engine", ["vector", "stream"])
    @pytest.mark.parametrize("spec", REPLACEMENT_SPECS)
    def test_engines_match_loop(self, spec, engine, conflict):
        result = self._run(spec, conflict, engine)
        reference = self._run(spec, conflict, "loop")
        assert result.to_dict() == reference.to_dict()
        assert result.stats.replacement_update_transfers == result.stats.hits

    @pytest.mark.parametrize("spec", REPLACEMENT_SPECS)
    def test_observer_path_matches_inlined_counters(self, spec, conflict):
        """An observer forces the event-emitting per-access path; the
        counters rebuilt from its events equal the inlined ones, and
        the result equals the unobserved kernel run."""
        shadow = StatsObserver()
        observed = self._run(spec, conflict, "auto", 0.0, shadow)
        assert shadow.stats.to_dict() == observed.stats.to_dict()
        assert observed.to_dict() == self._run(
            spec, conflict, "vector", 0.0
        ).to_dict()

    def test_victim_rule_decides_hits(self, conflict):
        """The trace exercises the rules: they disagree on hit counts."""
        hits = {
            self._run(f"unbiased:2:replacement={policy}", conflict,
                      "vector").stats.hits
            for policy in ("random", "lru", "nru", "rrip")
        }
        assert len(hits) == 4


def _drive(cache, trace, engine_name, warm_frac=0.3, epoch=None):
    """Drive a hand-assembled cache with one engine; return its outputs."""
    engine = ENGINES[engine_name]
    assert engine.supports(cache)
    warm = int(len(trace) * warm_frac)
    stream = TraceStream(trace, cache.geometry)
    segments = serial_segments(trace, warm, epoch)
    phases = engine.drive(cache, stream, warm, segments, epoch)
    return (
        cache.stats.to_dict(),
        phases.to_dict() if phases is not None else None,
    )


class TestVectorProperties:
    """Property checks against the reference loop on randomized traces."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("warm", [0.0, 0.3, 0.8])
    def test_random_traces_and_warmups(self, seed, warm):
        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        trace = random_trace(seed, n=2000)
        vec = Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=warm, epoch=333, engine="vector"
        )
        ref = Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=warm, epoch=333, engine="loop"
        )
        assert vec.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("dcp", ["none", "exact"])
    @pytest.mark.parametrize("kind", ["serial", "mru", "partial_tag"])
    def test_dcp_modes(self, kind, dcp, trace):
        """No DCP at all (modelled writeback probes) stays exact too."""
        design = AccordDesign(kind=kind, ways=2, dcp=dcp)
        config = scaled_system(ways=2, scale=SCALE)
        vec = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="vector"
        )
        ref = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="loop"
        )
        assert vec.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("hashes", [1, 2, 4])
    def test_standalone_sws_steering(self, hashes, trace):
        """SWS without the GWS wrapper is vectorizable and exact."""
        design = AccordDesign(kind="serial", ways=8)
        config = scaled_system(ways=8, scale=SCALE)
        outs = []
        for engine_name in ("vector", "loop"):
            cache = build_dram_cache(design, config, seed=9)
            cache.steering = SkewedWaySteering(
                cache.geometry, hashes=hashes, pip=0.9, rng=XorShift64(123)
            )
            ensure_policy_conformance(cache)
            outs.append(_drive(cache, trace, engine_name, epoch=400))
        assert outs[0] == outs[1]

    def test_finite_dcp_is_not_vectorizable(self, trace):
        """The finite directory is stateful in a way the kernel does not
        replay; the resolver must not hand such a cache to vector."""
        design = AccordDesign(kind="serial", ways=2, dcp="finite")
        config = scaled_system(ways=2, scale=SCALE)
        cache = build_dram_cache(design, config, seed=5)
        assert not ENGINES["vector"].supports(cache)
        assert not ENGINES["replay"].supports(cache)


#: The GWS-family designs under the finite DCP.
FINITE_DCP_SPECS = (
    "accord:2:dcp=finite",
    "sws:8:2:dcp=finite",
    "gws:2:dcp=finite",
    "dueling:2:dcp=finite",
)


class TestFiniteDcpReplay:
    """The replay kernel models the finite DCP's LRU capacity eviction
    (the default-capacity designs are in :class:`TestReplayProperties`)."""

    @pytest.mark.parametrize("spec", FINITE_DCP_SPECS)
    def test_tiny_directory_evicts_and_matches_loop(self, spec, trace):
        design = parse_design_spec(spec)
        config = scaled_system(ways=design.ways, scale=SCALE)
        outs = {}
        for engine_name in ("replay", "loop"):
            cache = build_dram_cache(design, config, seed=5)
            cache.dcp = FiniteDcpDirectory(capacity=97)
            outs[engine_name] = _drive(cache, trace, engine_name, epoch=EPOCH)
        assert cache.dcp.capacity_evictions > 0  # the loop-driven cache
        assert outs["replay"] == outs["loop"]


class TestVectorReplayFootprint:
    """Kernel state covers the touched sets, not the geometry."""

    @pytest.mark.parametrize(
        "spec,engine_name",
        [("pws:2", "vector"), ("accord:2", "replay"), ("dueling:2", "replay")],
    )
    def test_state_scales_with_trace_footprint(self, spec, engine_name):
        """A short trace on an 8M-line cache peaks at a few MB, where
        dense per-geometry state arrays would need over 100 MB."""
        import tracemalloc

        design = parse_design_spec(spec)
        config = scaled_system(ways=design.ways, scale=1.0 / 8.0)
        cache = build_dram_cache(design, config, seed=5)
        assert cache.geometry.num_lines >= 8 << 20
        trace = random_trace(404, n=2000, footprint_lines=1 << 24)
        tracemalloc.start()
        try:
            _drive(cache, trace, engine_name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_replay_drive_per_access_budget(self):
        """Beyond the memoized stream arrays, an SWS replay drive holds
        a few list columns per access: no per-access set, seed or
        candidate-list columns (those cost ~370 B per access)."""
        import tracemalloc

        design = parse_design_spec("sws:8:4")
        config = scaled_system(ways=design.ways, scale=SCALE)
        trace = random_trace(405, n=20000, footprint_lines=1 << 20)
        _drive(build_dram_cache(design, config, seed=5), trace, "replay")
        cache = build_dram_cache(design, config, seed=5)
        tracemalloc.start()
        try:
            _drive(cache, trace, "replay")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(trace) < 220


class TestReplayProperties:
    """Randomized global-state configs: replay == reference loop.

    The equivalence matrix pins the 16 benchmark variants; these
    configs vary everything the replay kernels parameterize — region
    table sizes and granularities, install-coin biases, way counts,
    hash counts (including the degenerate single-hash row that skips
    the coin entirely), and every DCP mode (exact directory, finite
    directory, modelled writeback probes) — on randomized traces,
    phases included.
    """

    CONFIGS = [
        AccordDesign(kind="gws", ways=2, rit_entries=8, rlt_entries=8,
                     region_size=1024),
        AccordDesign(kind="gws", ways=2, dcp="none"),
        AccordDesign(kind="accord", ways=2, pip=0.5, region_size=1024,
                     rit_entries=16),
        AccordDesign(kind="accord", ways=2, dcp="none", pip=0.99),
        AccordDesign(kind="accord", ways=4, rit_entries=4, rlt_entries=128,
                     region_size=512),
        AccordDesign(kind="sws", ways=8, hashes=3, pip=0.7, dcp="none",
                     rit_entries=8),
        AccordDesign(kind="sws", ways=8, hashes=1),
        AccordDesign(kind="dueling", ways=2, rit_entries=8),
        AccordDesign(kind="dueling", ways=4, dcp="none", region_size=1024),
        AccordDesign(kind="accord", ways=2, dcp="finite"),
        AccordDesign(kind="sws", ways=8, hashes=2, dcp="finite"),
        AccordDesign(kind="gws", ways=2, dcp="finite"),
        AccordDesign(kind="dueling", ways=2, dcp="finite"),
    ]

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("design", CONFIGS, ids=_design_id)
    def test_randomized_configs_match_loop(self, design, seed):
        config = scaled_system(ways=design.ways, scale=SCALE)
        trace = random_trace(seed * 7 + 1, n=2500)
        cache = build_dram_cache(design, config, seed=seed)
        assert ENGINES["replay"].supports(cache)
        rep = Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=0.25, epoch=400, engine="replay"
        )
        ref = Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=0.25, epoch=400, engine="loop"
        )
        assert rep.to_dict() == ref.to_dict()

    def test_replay_requires_fresh_tables(self, trace):
        """A cache whose region tables already hold entries cannot be
        replayed from build-time defaults; supports() must decline."""
        design = AccordDesign(kind="accord", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        cache = build_dram_cache(design, config, seed=5)
        assert ENGINES["replay"].supports(cache)
        cache.steering.rit.record(0, 1)
        assert not ENGINES["replay"].supports(cache)


class TestTracePlanCache:
    """The vector engine's weakref-keyed stream-array plan cache."""

    def test_plans_reused_across_runs(self):
        from repro.sim.engines.vector import _TRACE_PLANS

        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        trace = random_trace(401, n=1500)
        simulator = Simulator(config, design, seed=5)
        first = simulator.run(trace, warmup_fraction=0.3, engine="vector")
        entry = _TRACE_PLANS.get(id(trace))
        assert entry is not None
        plans = entry[1]
        assert len(plans) == 1
        cached = next(iter(plans.values()))
        second = simulator.run(trace, warmup_fraction=0.3, engine="vector")
        assert _TRACE_PLANS[id(trace)][1] is plans
        assert next(iter(plans.values())) is cached  # reused, not rebuilt
        assert first.to_dict() == second.to_dict()

    def test_replay_engine_shares_the_plan_cache(self):
        """Replay precomputes through the same _stream_arrays memo, so a
        mixed vector/replay sweep decomposes each trace once."""
        from repro.sim.engines.vector import _TRACE_PLANS

        design = AccordDesign(kind="accord", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        trace = random_trace(403, n=1500)
        Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="replay"
        )
        entry = _TRACE_PLANS.get(id(trace))
        assert entry is not None and len(entry[1]) == 1

    def test_dropping_trace_releases_plan(self):
        import gc

        from repro.sim.engines.vector import _TRACE_PLANS

        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        trace = random_trace(402, n=1500)
        Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="vector"
        )
        key = id(trace)
        assert key in _TRACE_PLANS
        del trace
        gc.collect()
        assert key not in _TRACE_PLANS  # weakref callback evicted it


class TestResolver:
    def _cache(self, design):
        config = scaled_system(ways=design.ways, scale=SCALE)
        return build_dram_cache(
            design, config, seed=5
        ), design

    def test_auto_picks_fastest_supported(self):
        for kind, expected in (("pws", "vector"), ("gws", "replay"),
                               ("dueling", "replay"), ("ca", "replay")):
            design = AccordDesign(kind=kind, ways=1 if kind == "ca" else 2)
            cache, _ = self._cache(design)
            assert resolve_engine(cache, design=design).name == expected

    def test_replacement_variants_resolve_past_stream(self):
        """Every replacement policy vectorizes; only stacks neither
        kernel models (GWS over LRU) still resolve to stream."""
        for spec in REPLACEMENT_SPECS:
            cache, design = self._cache(parse_design_spec(spec))
            assert resolve_engine(cache, design=design).name == "vector"
        cache, design = self._cache(parse_design_spec("gws:2:replacement=lru"))
        assert resolve_engine(cache, design=design).name == "stream"

    def test_finite_dcp_resolves_to_replay_on_gws_family(self):
        """The replay kernel models the finite DCP; other policy stacks
        under it (here PWS) still need stream."""
        cache, design = self._cache(parse_design_spec("accord:2:dcp=finite"))
        assert resolve_engine(cache, design=design).name == "replay"
        cache, design = self._cache(parse_design_spec("pws:2:dcp=finite"))
        assert resolve_engine(cache, design=design).name == "stream"

    def test_explicit_supported_request_is_honored(self):
        cache, design = self._cache(AccordDesign(kind="pws", ways=2))
        for name in ("vector", "stream", "loop"):
            assert resolve_engine(cache, requested=name,
                                  design=design).name == name

    def test_unsupported_request_falls_back_with_one_warning(self):
        from repro.sim.engines import _ENGINE_FALLBACK_WARNED

        _ENGINE_FALLBACK_WARNED.clear()
        cache, design = self._cache(AccordDesign(kind="gws", ways=2))
        with pytest.warns(RuntimeWarning, match="--engine vector ignored"):
            engine = resolve_engine(cache, requested="vector", design=design)
        assert engine.name == "replay"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert resolve_engine(
                cache, requested="vector", design=design
            ).name == "replay"

    def test_replay_request_on_set_local_design_falls_to_stream(self):
        """Replay only implements the global-state stacks; a set-local
        design degrades past it to stream (never silently to loop)."""
        from repro.sim.engines import _ENGINE_FALLBACK_WARNED

        _ENGINE_FALLBACK_WARNED.clear()
        cache, design = self._cache(AccordDesign(kind="pws", ways=2))
        with pytest.warns(RuntimeWarning, match="--engine replay ignored"):
            engine = resolve_engine(cache, requested="replay", design=design)
        assert engine.name == "stream"
        _ENGINE_FALLBACK_WARNED.clear()

    def test_worker_processes_suppress_fallback_warning(self, monkeypatch):
        """Warn-once state is per-process; inside pool workers the
        warning is suppressed entirely (the parent warns before
        dispatch), so -j N cannot print N copies."""
        from repro.sim.engines import _ENGINE_FALLBACK_WARNED

        _ENGINE_FALLBACK_WARNED.clear()
        cache, design = self._cache(AccordDesign(kind="gws", ways=2))
        monkeypatch.setenv(WORKER_ENV, "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would raise
            assert resolve_engine(
                cache, requested="vector", design=design
            ).name == "replay"
        _ENGINE_FALLBACK_WARNED.clear()

    def test_strict_raises_instead_of_falling_back(self):
        cache, design = self._cache(AccordDesign(kind="gws", ways=2))
        with pytest.raises(SimulationError, match="engine-strict"):
            resolve_engine(cache, requested="vector", strict=True,
                           design=design)

    def test_simulator_honors_strict(self, trace):
        config = scaled_system(ways=2, scale=SCALE)
        simulator = Simulator(config, AccordDesign(kind="gws", ways=2), seed=5)
        with pytest.raises(SimulationError, match="engine-strict"):
            simulator.run(trace, engine="vector", engine_strict=True)

    def test_unknown_names_are_rejected(self):
        cache, _ = self._cache(AccordDesign(kind="pws", ways=2))
        with pytest.raises(SimulationError, match="unknown engine"):
            resolve_engine(cache, requested="warp")

    def test_observer_disables_vector(self, trace):
        """An attached observer must force a non-vector engine (the
        kernel emits no events); results still match the loop."""
        from repro.cache.events import StatsObserver

        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        simulator = Simulator(config, design, seed=5)
        simulator.cache.add_observer(StatsObserver())
        assert not ENGINES["vector"].supports(simulator.cache)

    def test_repeat_runs_are_independent(self, trace):
        """Simulator.run twice = two fresh caches, not cumulative state
        (the vector kernel replays build-time defaults, so the contract
        is enforced for every engine)."""
        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        simulator = Simulator(config, design, seed=5)
        first = simulator.run(trace, warmup_fraction=0.3, engine="vector")
        second = simulator.run(trace, warmup_fraction=0.3, engine="vector")
        fresh = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="loop"
        )
        assert first.to_dict() == second.to_dict() == fresh.to_dict()


class TestWorkerMarker:
    """Pool workers are recognisable, so they can stay silent."""

    def test_env_marker_detected(self, monkeypatch):
        monkeypatch.setenv(WORKER_ENV, "1")
        assert in_worker_process()
        monkeypatch.delenv(WORKER_ENV)
        if not multiprocessing.current_process().daemon:
            assert not in_worker_process()

    def test_mark_worker_process_sets_marker(self, monkeypatch):
        monkeypatch.delenv(WORKER_ENV, raising=False)
        mark_worker_process()
        try:
            assert os.environ.get(WORKER_ENV) == "1"
            assert in_worker_process()
        finally:
            os.environ.pop(WORKER_ENV, None)


class TestJobKeyEngine:
    KEY_ARGS = dict(
        design=AccordDesign(kind="pws", ways=2),
        workload="soplex",
        num_accesses=1000,
    )

    def test_engine_never_forks_the_memo_space(self):
        keys = [JobKey(engine=name, **self.KEY_ARGS) for name in ENGINE_NAMES]
        assert len({key.digest() for key in keys}) == 1
        assert all("engine" not in key.canonical() for key in keys)

    def test_engine_is_validated(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            JobKey(engine="warp", **self.KEY_ARGS)

    def test_jobspec_engine_field(self):
        from repro.service.jobspec import expand_spec

        keys, _, _ = expand_spec(
            {"designs": "pws:2", "quick": True, "engine": "vector"}
        )
        assert {key.engine for key in keys} == {"vector"}
        base, _, _ = expand_spec({"designs": "pws:2", "quick": True})
        assert [k.digest() for k in keys] == [k.digest() for k in base]
        with pytest.raises(ConfigError, match="unknown engine"):
            expand_spec({"designs": "pws:2", "engine": "warp"})
        with pytest.raises(ConfigError, match="must be a string"):
            expand_spec({"designs": "pws:2", "engine": 3})


class TestResultDigestProperties:
    """result_digest is an engine-invariant payload fingerprint.

    The trust layer's shadow verification compares digests across
    engines, so the digest must be a pure function of the *answer*
    (stats + phases), identical under every engine, and sensitive to a
    perturbation of any single stats field.
    """

    @pytest.mark.parametrize("engine", ["loop", "stream", "vector", "replay"])
    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_digest_engine_invariant(self, design, engine, trace,
                                     loop_reference):
        from repro.verify.digest import payload_digest, result_digest

        ref = loop_reference(design)
        expected = payload_digest(ref["stats"], ref["phases"])
        assert ref["payload_digest"] == expected
        config = scaled_system(ways=design.ways, scale=SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=0.3, epoch=EPOCH, engine=engine
            )
        assert result_digest(result) == expected

    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_digest_sensitive_to_every_stats_field(self, design, trace,
                                                   loop_reference):
        from repro.verify.digest import payload_digest

        import copy

        ref = loop_reference(design)
        base = payload_digest(ref["stats"], ref["phases"])

        def leaves(node, path=()):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from leaves(value, path + (key,))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                yield path

        paths = list(leaves(ref["stats"]))
        assert paths  # every design reports at least one counter
        for path in paths:
            perturbed = copy.deepcopy(ref["stats"])
            node = perturbed
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += 1
            assert payload_digest(perturbed, ref["phases"]) != base, path
