"""Fused multi-config drives: bit-identity against the reference loop.

The fused pass's whole contract is that evaluating K same-signature
configs in one kernel pass decodes into K results *byte-identical* to
K separate per-access reference-loop runs. A solo
:class:`~repro.sim.engines.vector.VectorEngine` drive runs the same
kernel at K = 1, so the reference is the ``loop`` engine. These tests
drive both paths over the same traces — including phase-resolved runs
— and compare the full stats dictionaries.
"""

import pytest

from repro.cache.storage import TagStore
from repro.core.accord import AccordDesign
from repro.core.sws import SkewedWaySteering
from repro.errors import SimulationError
from repro.params.system import scaled_system
from repro.sim.engines import (
    ENGINES,
    TraceStream,
    resolve_engine,
    serial_segments,
)
from repro.sim.engines.multi import (
    FusedRun,
    drive_fused,
    fused_pass_count,
    fusion_plan,
    plan_signature,
)
from repro.sim.engines.vector import VectorEngine
from repro.sim.runner import TraceFactory
from repro.sim.system import build_dram_cache
from repro.core.protocols import ensure_policy_conformance
from repro.utils.rng import XorShift64

ACCESSES = 5000
SCALE = 1.0 / 128.0
SEED = 7
WARMUP = 0.3


def _design_builder(design, seed=SEED):
    def build():
        config = scaled_system(ways=design.ways, scale=SCALE)
        return build_dram_cache(design, config, seed=seed)

    return build


def _sws_builder(pip, rng_seed=123):
    """Standalone skewed-way steering (the GWS wrapper declines the
    kernel); exercises the candidate-matrix scan path."""

    def build():
        design = AccordDesign(kind="serial", ways=4)
        config = scaled_system(ways=4, scale=SCALE)
        cache = build_dram_cache(design, config, seed=SEED)
        cache.steering = SkewedWaySteering(
            cache.geometry, hashes=2, pip=pip, rng=XorShift64(rng_seed)
        )
        ensure_policy_conformance(cache)
        return cache

    return build


# Same-signature groups: every member shares control flow, so one
# fused pass covers the group. The pws/partial-tag groups exercise the
# m == 2 scan fast path, the ways=4 groups the generic block-gather
# path, and the sws group the candidate-matrix scan. The replacement
# groups run the LRU/NRU/SRRIP victim rules with distinct seeds, so
# each member's NRU/SRRIP draw stream differs.
GROUPS = (
    ("pws-pips", [
        _design_builder(AccordDesign(kind="pws", ways=2, pip=0.2)),
        _design_builder(AccordDesign(kind="pws", ways=2, pip=0.5)),
        _design_builder(AccordDesign(kind="pws", ways=2, pip=0.95)),
    ]),
    ("sws-standalone", [
        _sws_builder(0.9),
        _sws_builder(0.6),
    ]),
    ("unbiased-4way", [
        _design_builder(AccordDesign(kind="unbiased", ways=4)),
        _design_builder(
            AccordDesign(kind="unbiased", ways=4, label="twin")
        ),
    ]),
    ("partial-tag", [
        _design_builder(
            AccordDesign(kind="partial_tag", ways=2, partial_tag_bits=4)
        ),
        _design_builder(
            AccordDesign(kind="partial_tag", ways=2, partial_tag_bits=6)
        ),
    ]),
    ("serial-flow", [
        _design_builder(AccordDesign(kind="serial", ways=4)),
        _design_builder(
            AccordDesign(kind="serial", ways=4, label="twin")
        ),
    ]),
) + tuple(
    (f"{policy}-seeds", [
        _design_builder(
            AccordDesign(kind="unbiased", ways=2, replacement=policy),
            seed=seed,
        )
        for seed in (SEED, 8, 9)
    ])
    for policy in ("lru", "nru", "rrip")
)


def _trace(workload="soplex"):
    config = scaled_system(ways=1, scale=SCALE)
    return TraceFactory(config, ACCESSES, SEED).trace_for(workload)


def _solo(builder, trace, epoch=None):
    """One config on the per-access reference loop."""
    cache = builder()
    warm = int(len(trace) * WARMUP)
    segments = serial_segments(trace, warm, epoch)
    stream = TraceStream(trace, cache.geometry)
    phases = ENGINES["loop"].drive(cache, stream, warm, segments, epoch)
    return cache.stats, phases


def _fused(builders, trace, epoch=None):
    caches = [b() for b in builders]
    plans = [fusion_plan(c) for c in caches]
    assert all(p is not None for p in plans)
    assert len({plan_signature(p) for p in plans}) == 1
    warm = int(len(trace) * WARMUP)
    runs = [
        FusedRun(
            plan=plan,
            warm=warm,
            segments=serial_segments(trace, warm, epoch),
            epoch=epoch,
        )
        for plan in plans
    ]
    geometry = caches[0].geometry
    return drive_fused(runs, TraceStream(trace, geometry), geometry)


class TestFusedBitIdentity:
    @pytest.mark.parametrize(
        "builders", [g[1] for g in GROUPS], ids=[g[0] for g in GROUPS]
    )
    def test_group_matches_solo_vector(self, builders):
        trace = _trace()
        fused = _fused(builders, trace)
        for builder, (stats, phases) in zip(builders, fused):
            solo_stats, solo_phases = _solo(builder, trace)
            assert stats.to_dict() == solo_stats.to_dict()
            assert phases is None and solo_phases is None

    def test_phase_series_identical(self):
        builders = GROUPS[0][1]
        trace = _trace("mix2")
        fused = _fused(builders, trace, epoch=500)
        for builder, (stats, phases) in zip(builders, fused):
            solo_stats, solo_phases = _solo(builder, trace, epoch=500)
            assert stats.to_dict() == solo_stats.to_dict()
            assert phases.to_dict() == solo_phases.to_dict()

    def test_k1_degenerates_to_solo(self):
        builder = _design_builder(AccordDesign(kind="pws", ways=2, pip=0.5))
        trace = _trace()
        before = fused_pass_count()
        (stats, phases), = _fused([builder], trace)
        solo_stats, _ = _solo(builder, trace)
        assert stats.to_dict() == solo_stats.to_dict()
        # a single run is not a fused pass
        assert fused_pass_count() == before

    def test_fused_pass_counter_advances(self):
        builders = GROUPS[0][1]
        trace = _trace()
        passes, configs = fused_pass_count()
        _fused(builders, trace)
        after_passes, after_configs = fused_pass_count()
        assert after_passes == passes + 1
        assert after_configs == configs + len(builders)


class TestPlanSignature:
    def test_swept_parameter_shares_signature(self):
        a = fusion_plan(
            _design_builder(AccordDesign(kind="pws", ways=2, pip=0.2))()
        )
        b = fusion_plan(
            _design_builder(AccordDesign(kind="pws", ways=2, pip=0.9))()
        )
        assert plan_signature(a) == plan_signature(b)

    def test_control_flow_splits_signature(self):
        pws = fusion_plan(
            _design_builder(AccordDesign(kind="pws", ways=2))()
        )
        serial = fusion_plan(
            _design_builder(AccordDesign(kind="serial", ways=2))()
        )
        mru = fusion_plan(
            _design_builder(AccordDesign(kind="mru", ways=2))()
        )
        signatures = {plan_signature(p) for p in (pws, serial, mru)}
        assert len(signatures) == 3

    def test_mixed_signatures_are_rejected(self):
        builders = [
            _design_builder(AccordDesign(kind="pws", ways=2)),
            _design_builder(AccordDesign(kind="serial", ways=2)),
        ]
        caches = [b() for b in builders]
        runs = [FusedRun(fusion_plan(c), 0, (), None) for c in caches]
        geometry = caches[0].geometry
        stream = TraceStream(_trace(), geometry)
        with pytest.raises(SimulationError):
            drive_fused(runs, stream, geometry)


    def test_mixed_replacement_plans_are_rejected(self):
        """Random and LRU victim rules take different kernel branches,
        so their plans never share a fused pass."""
        caches = [
            _design_builder(
                AccordDesign(kind="unbiased", ways=2, replacement=policy)
            )()
            for policy in ("random", "lru")
        ]
        plans = [fusion_plan(c) for c in caches]
        assert plan_signature(plans[0]) != plan_signature(plans[1])
        runs = [FusedRun(plan, 0, (), None) for plan in plans]
        geometry = caches[0].geometry
        stream = TraceStream(_trace(), geometry)
        with pytest.raises(SimulationError):
            drive_fused(runs, stream, geometry)


class TestLazyTagStore:
    """Every DramCache defers its tag store until first touch."""

    def _build(self, kind="pws"):
        design = AccordDesign(kind=kind, ways=2, pip=0.5)
        config = scaled_system(ways=2, scale=SCALE)
        return build_dram_cache(design, config, seed=SEED)

    def test_vector_build_skips_store_allocation(self):
        cache = self._build()
        assert "store" not in cache.__dict__
        # planning and driving on the array engines never materialize it
        assert fusion_plan(cache) is not None
        trace = _trace()
        stream = TraceStream(trace, cache.geometry)
        VectorEngine().drive(cache, stream, 0, serial_segments(trace, 0, None), None)
        assert "store" not in cache.__dict__

    def test_replay_drive_skips_store_allocation(self):
        cache = self._build(kind="accord")
        trace = _trace()
        engine = resolve_engine(cache)
        assert engine.name == "replay"
        stream = TraceStream(trace, cache.geometry)
        engine.drive(cache, stream, 0, serial_segments(trace, 0, None), None)
        assert "store" not in cache.__dict__

    def test_scalar_touch_materializes_prefilled_store(self):
        cache = self._build()
        eager = TagStore(cache.geometry, prefill=True)
        store = cache.store  # first touch materializes
        assert "store" in cache.__dict__
        assert store.dense == eager.dense
        assert store.valid_lines == eager.valid_lines == cache.geometry.num_lines
        assert store._tags == eager._tags
        assert store._dirty == eager._dirty

    @pytest.mark.parametrize("engine", ["stream", "loop"])
    def test_scalar_drive_matches_eager_store(self, engine):
        """A store materialized mid-drive ends where an eager one does."""
        trace = _trace()
        lazy = self._build()
        eager = self._build()
        eager.store = TagStore(eager.geometry, prefill=True)
        for cache in (lazy, eager):
            stream = TraceStream(trace, cache.geometry)
            ENGINES[engine].drive(
                cache, stream, 0, serial_segments(trace, 0, None), None
            )
        assert lazy.stats.to_dict() == eager.stats.to_dict()
        assert lazy.store.valid_lines == eager.store.valid_lines
        assert lazy.store._tags == eager.store._tags
        assert lazy.store._dirty == eager.store._dirty
