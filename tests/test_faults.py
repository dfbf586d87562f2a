"""Tests for the deterministic fault-injection harness."""

import errno
import json

import pytest

from repro.errors import ConfigError
from repro.exec.faults import (
    FAULT_PLAN_ENV,
    KIND_SITES,
    SITE_JOB,
    SITE_STORE_ENTRY,
    SITE_STORE_WRITE,
    SITE_TRACE_ENTRY,
    FaultPlan,
    FaultRule,
    active_plan,
    fault_point,
    install,
)


@pytest.fixture(autouse=True)
def _clean_install():
    yield
    install(None)


class TestParse:
    def test_full_grammar(self, tmp_path):
        plan = FaultPlan.parse(
            f"seed=13;rate=0.5;hang_secs=30;dir={tmp_path};"
            "crash=2;os_error=3"
        )
        assert plan.seed == 13
        assert plan.rate == 0.5
        assert plan.hang_secs == 30.0
        assert plan.ledger == tmp_path
        assert {r.kind: r.times for r in plan.rules} == {
            "crash": 2, "os_error": 3,
        }

    def test_empty_spec_is_inert(self):
        plan = FaultPlan.parse("")
        assert plan.rules == []

    def test_zero_budget_rules_dropped(self):
        plan = FaultPlan.parse("crash=0;os_error=1")
        assert [r.kind for r in plan.rules] == ["os_error"]

    @pytest.mark.parametrize("bad", [
        "bogus=1",          # unknown kind/field
        "crash",            # missing =value
        "crash=two",        # non-integer budget
        "crash=-1",         # negative budget
        "rate=1.5",         # rate out of [0, 1]
        "rate=x",           # non-float
        "hang_secs=0",      # non-positive hang
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    def test_every_kind_has_a_site(self):
        for kind in KIND_SITES:
            plan = FaultPlan.parse(f"{kind}=1")
            assert [r.kind for r in plan.rules] == [kind]


class TestFiring:
    def test_no_plan_is_a_noop(self):
        # No env var, nothing installed: fault_point must do nothing.
        fault_point(SITE_JOB, token="anything")

    def test_os_error_fires_exactly_budget_times(self):
        install(FaultPlan([FaultRule("os_error", 2)]))
        for attempt in range(2):
            with pytest.raises(OSError) as info:
                fault_point(SITE_JOB, token=f"t{attempt}")
            assert info.value.errno == errno.EAGAIN
        fault_point(SITE_JOB, token="t2")  # budget exhausted: no-op
        assert active_plan().fired == {"os_error": 2}

    def test_worker_only_kinds_skipped_in_main_process(self):
        # crash/hang must never kill or stall the harness itself.
        install(FaultPlan([FaultRule("crash", 5), FaultRule("hang", 5)]))
        fault_point(SITE_JOB, token="x")
        assert active_plan().fired == {}

    def test_rate_zero_never_fires(self):
        install(FaultPlan([FaultRule("os_error", 100)], rate=0.0))
        for attempt in range(20):
            fault_point(SITE_JOB, token=f"t{attempt}")
        assert active_plan().fired == {}

    def test_decision_is_seeded_and_deterministic(self):
        decide = FaultPlan([], rate=0.5, seed=13)._decide
        outcomes = [decide("os_error", f"t{n}") for n in range(64)]
        again = [decide("os_error", f"t{n}") for n in range(64)]
        assert outcomes == again
        assert any(outcomes) and not all(outcomes)  # rate actually bites
        other_seed = FaultPlan([], rate=0.5, seed=14)._decide
        assert outcomes != [other_seed("os_error", f"t{n}") for n in range(64)]

    def test_site_binding(self):
        # disk_full belongs to store.write: a job-site opportunity must
        # not consume its budget.
        install(FaultPlan([FaultRule("disk_full", 1)]))
        fault_point(SITE_JOB, token="x")
        assert active_plan().fired == {}
        with pytest.raises(OSError) as info:
            fault_point(SITE_STORE_WRITE, token="x")
        assert info.value.errno == errno.ENOSPC

    def test_ledger_budget_is_shared(self, tmp_path):
        # Two plan instances (stand-ins for two worker processes) share
        # one budget through the ledger directory.
        first = FaultPlan([FaultRule("os_error", 2)], ledger=str(tmp_path))
        second = FaultPlan([FaultRule("os_error", 2)], ledger=str(tmp_path))
        with pytest.raises(OSError):
            first.fire(SITE_JOB, "a")
        with pytest.raises(OSError):
            second.fire(SITE_JOB, "b")
        first.fire(SITE_JOB, "c")   # exhausted globally: no-ops
        second.fire(SITE_JOB, "d")
        slots = sorted(p.name for p in tmp_path.iterdir())
        assert slots == ["os_error.0", "os_error.1"]


class TestEntryCorruption:
    def test_corrupt_store_garbles_file(self, tmp_path):
        victim = tmp_path / "entry.json"
        victim.write_text(json.dumps({"ok": True}), encoding="utf-8")
        install(FaultPlan([FaultRule("corrupt_store", 1)]))
        fault_point(SITE_STORE_ENTRY, token="x", path=str(victim))
        with pytest.raises(json.JSONDecodeError):
            json.loads(victim.read_text(encoding="utf-8"))

    def test_truncate_trace_halves_file(self, tmp_path):
        victim = tmp_path / "entry.npz"
        victim.write_bytes(b"\x00" * 100)
        install(FaultPlan([FaultRule("truncate_trace", 1)]))
        fault_point(SITE_TRACE_ENTRY, token="x", path=str(victim))
        assert victim.stat().st_size == 50


class TestActivePlan:
    def test_env_plan_cached_per_spec(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "os_error=1")
        plan = active_plan()
        assert plan is active_plan()  # same spec: cached instance
        monkeypatch.setenv(FAULT_PLAN_ENV, "os_error=2")
        assert active_plan() is not plan  # spec change takes effect

    def test_env_cleared_deactivates(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "os_error=1")
        assert active_plan() is not None
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert active_plan() is None

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "os_error=1")
        mine = FaultPlan([])
        install(mine)
        assert active_plan() is mine
        install(None)
        assert active_plan() is not mine

    def test_malformed_env_raises_config_error(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "nope=1")
        with pytest.raises(ConfigError):
            active_plan()
