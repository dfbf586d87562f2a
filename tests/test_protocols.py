"""Tests for the runtime-checkable policy protocols (repro.core.protocols)."""

import pytest

from repro.cache.dcp import DcpDirectory, FiniteDcpDirectory
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import (
    LruReplacement,
    NruReplacement,
    RandomReplacement,
)
from repro.core.accord import DESIGN_KINDS, AccordDesign, make_design
from repro.core.dueling import DuelingPwsSteering
from repro.core.gws import GangedWayPredictor, GangedWaySteering
from repro.core.prediction import (
    MruPredictor,
    PartialTagPredictor,
    RandomPredictor,
    StaticPreferredPredictor,
)
from repro.core.protocols import (
    DcpDirectoryPolicy,
    InstallSteeringPolicy,
    ReplacementPolicy,
    WayPredictorPolicy,
    ensure_policy_conformance,
)
from repro.core.pws import ProbabilisticWaySteering
from repro.core.steering import DirectMappedSteering, UnbiasedSteering
from repro.core.sws import SkewedWaySteering
from repro.errors import PolicyError
from repro.utils.rng import XorShift64

GEOMETRY = CacheGeometry(8 * 1024, 2)


class TestSteeringConformance:
    @pytest.mark.parametrize("factory", [
        lambda g: DirectMappedSteering(g.with_ways(1)),
        UnbiasedSteering,
        lambda g: ProbabilisticWaySteering(g, rng=XorShift64(1)),
        lambda g: GangedWaySteering(g, fallback=UnbiasedSteering(g)),
        lambda g: SkewedWaySteering(g, rng=XorShift64(2)),
        lambda g: DuelingPwsSteering(g, rng=XorShift64(3)),
    ])
    def test_conforms(self, factory):
        assert isinstance(factory(GEOMETRY), InstallSteeringPolicy)

    def test_non_policy_rejected(self):
        class NotSteering:
            def candidate_ways(self, set_index, tag):
                return range(2)

        assert not isinstance(NotSteering(), InstallSteeringPolicy)


class TestPredictorConformance:
    @pytest.mark.parametrize("factory", [
        lambda g: RandomPredictor(g, XorShift64(1)),
        StaticPreferredPredictor,
        MruPredictor,
        PartialTagPredictor,
        lambda g: GangedWayPredictor(g, fallback=StaticPreferredPredictor(g)),
    ])
    def test_conforms(self, factory):
        assert isinstance(factory(GEOMETRY), WayPredictorPolicy)

    def test_perfect_predictor_conforms(self):
        # The oracle needs a live store; grab it from an assembled cache.
        cache = make_design(AccordDesign("perfect", ways=2), GEOMETRY)
        assert isinstance(cache.predictor, WayPredictorPolicy)


class TestReplacementConformance:
    @pytest.mark.parametrize("factory", [
        lambda: RandomReplacement(XorShift64(1)),
        lambda: LruReplacement(GEOMETRY),
        lambda: NruReplacement(GEOMETRY),
    ])
    def test_conforms(self, factory):
        assert isinstance(factory(), ReplacementPolicy)


class TestDcpConformance:
    @pytest.mark.parametrize("factory", [DcpDirectory, FiniteDcpDirectory])
    def test_conforms(self, factory):
        assert isinstance(factory(), DcpDirectoryPolicy)

    def test_authoritative_is_declared_not_guessed(self):
        # The protocol demands the attribute; a map without it is not a
        # DCP even if it has the right methods (the old getattr default
        # would silently have treated it as authoritative).
        class BareMap:
            def lookup(self, line_addr):
                return None

            def insert(self, line_addr, way):
                pass

            def remove(self, line_addr):
                pass

            def hit_rate(self):
                return 0.0

        assert not isinstance(BareMap(), DcpDirectoryPolicy)


class TestEnsureConformance:
    @pytest.mark.parametrize("kind", [k for k in DESIGN_KINDS if k != "ca"])
    def test_every_assembled_design_passes(self, kind):
        ways = 1 if kind == "direct" else 2
        cache = make_design(AccordDesign(kind, ways=ways), GEOMETRY)
        ensure_policy_conformance(cache)  # must not raise

    def test_missing_required_role_raises(self):
        cache = make_design(AccordDesign("serial", ways=2), GEOMETRY)
        cache.replacement = None
        with pytest.raises(PolicyError, match="replacement"):
            ensure_policy_conformance(cache)

    def test_nonconforming_dcp_raises(self):
        cache = make_design(AccordDesign("serial", ways=2), GEOMETRY)
        cache.dcp = object()
        with pytest.raises(PolicyError, match="dcp"):
            ensure_policy_conformance(cache)

    def test_optional_roles_may_be_none(self):
        cache = make_design(
            AccordDesign("serial", ways=2, dcp="none"), GEOMETRY
        )
        assert cache.predictor is None and cache.dcp is None
        ensure_policy_conformance(cache)  # must not raise


class _DcpBase:
    authoritative = True

    def lookup(self, line_addr):
        return None

    def insert(self, line_addr, way):
        pass

    def hit_rate(self):
        return 0.0


class _CompleteDcp(_DcpBase):
    def remove(self, line_addr):
        pass


class _DcpWithoutRemove(_DcpBase):
    pass


class _InstanceFlagDcp(_CompleteDcp):
    """Declares ``authoritative`` per instance rather than on the class."""

    authoritative = property(lambda self: self._flag)

    def __init__(self):
        self._flag = True


class TestConformanceMemo:
    """Per-class memoization never lets a non-conforming policy through."""

    def test_nonconforming_sibling_raises_on_every_build(self):
        for _ in range(3):
            cache = make_design(AccordDesign("serial", ways=2), GEOMETRY)
            cache.dcp = _CompleteDcp()
            ensure_policy_conformance(cache)  # cached as conforming
            cache.dcp = _DcpWithoutRemove()
            with pytest.raises(PolicyError, match="dcp"):
                ensure_policy_conformance(cache)

    def test_instance_level_members_checked_per_object(self):
        cache = make_design(AccordDesign("serial", ways=2), GEOMETRY)
        cache.dcp = _InstanceFlagDcp()
        ensure_policy_conformance(cache)
        broken = _InstanceFlagDcp()
        del broken._flag
        cache.dcp = broken
        with pytest.raises(PolicyError, match="dcp"):
            ensure_policy_conformance(cache)

    def test_instance_attribute_checked_per_object(self):
        cache = make_design(AccordDesign("serial", ways=2), GEOMETRY)
        ensure_policy_conformance(cache)
        del cache.steering.geometry
        with pytest.raises(PolicyError, match="steering"):
            ensure_policy_conformance(cache)
