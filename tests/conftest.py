"""Shared fixtures: small geometries and deterministic RNGs."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.exec import retire_pool
from repro.utils.rng import XorShift64


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path_factory, monkeypatch):
    """Point the on-disk result store at a per-session temp directory so
    tests never read or pollute the user's ~/.cache/repro."""
    root = tmp_path_factory.getbasetemp() / "repro-results"
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(root))


@pytest.fixture(autouse=True)
def _no_ambient_fault_plan(monkeypatch):
    """Fault injection is opt-in per test, never inherited from the
    invoking shell's REPRO_FAULT_PLAN."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


@pytest.fixture(autouse=True)
def _fresh_worker_pool():
    """Retire the process-wide worker pool after every test, so no test
    inherits workers forked before its own ``monkeypatch`` edits."""
    yield
    retire_pool()


@pytest.fixture
def geom_dm():
    """Tiny direct-mapped geometry: 8KB, 64B lines -> 128 sets."""
    return CacheGeometry(8 * 1024, 1)


@pytest.fixture
def geom_2way():
    """Tiny 2-way geometry: 8KB -> 64 sets x 2 ways."""
    return CacheGeometry(8 * 1024, 2)


@pytest.fixture
def geom_8way():
    """Tiny 8-way geometry: 32KB -> 64 sets x 8 ways."""
    return CacheGeometry(32 * 1024, 8)


@pytest.fixture
def rng():
    return XorShift64(1234)


def make_addr(geometry: CacheGeometry, set_index: int, tag: int) -> int:
    """Byte address mapping to (set_index, tag) in the given geometry."""
    return geometry.addr_of(set_index, tag)
