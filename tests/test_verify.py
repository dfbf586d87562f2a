"""Trust-layer tests: digests, sampling, breaker, shadow verify, audit.

The runtime verification subsystem (:mod:`repro.verify`) exists to
catch *wrong answers*, not just crashes: a silently corrupted in-memory
result, bit-rot in the store that stays valid JSON, or an engine whose
kernel drifted from the reference loop. These tests inject each of
those failure modes and assert the sweep detects, quarantines, heals —
and still produces results bit-identical to a fault-free run.
"""

import json
import warnings

import pytest

from repro.core.accord import AccordDesign
from repro.errors import ConfigError, SimulationError, VerificationError
from repro.exec import Executor, JobKey, ResultStore, SweepJournal
from repro.exec.faults import FAULT_PLAN_ENV
from repro.exec.resilience import quarantine_entry
from repro.params.system import scaled_system
from repro.sim.engines import resolve_engine
from repro.sim.system import build_dram_cache
from repro.verify import breaker, payload_digest, result_digest
from repro.verify.audit import audit_store, format_report
from repro.verify.shadow import should_verify

ACCESSES = 2500

DESIGNS = (
    AccordDesign(kind="direct", ways=1),
    AccordDesign(kind="accord", ways=2),
)
WORKLOADS = ("soplex", "mcf")


def all_keys(**overrides):
    return [
        JobKey(design=d, workload=w, num_accesses=ACCESSES, warmup=0.3,
               seed=7, **overrides)
        for d in DESIGNS
        for w in WORKLOADS
    ]


@pytest.fixture(autouse=True)
def clean_breaker(monkeypatch):
    """Every test starts and ends with no tripped engines."""
    monkeypatch.delenv(breaker.ENGINE_DENY_ENV, raising=False)
    breaker.reset()
    yield
    breaker.reset()


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference results, computed once."""
    results = Executor(jobs=1).run(all_keys())
    return {key: result.to_dict() for key, result in results.items()}


# -- digests ---------------------------------------------------------------


class TestDigests:
    def test_result_digest_matches_embedded_payload_digest(self, baseline):
        for record in baseline.values():
            assert record["payload_digest"] == payload_digest(
                record["stats"], record["phases"]
            )

    def test_digest_is_key_order_independent(self):
        a = payload_digest({"hits": 1, "misses": 2}, None)
        b = payload_digest({"misses": 2, "hits": 1}, None)
        assert a == b

    def test_digest_changes_with_any_field(self):
        base = payload_digest({"hits": 1, "misses": 2}, None)
        assert payload_digest({"hits": 2, "misses": 2}, None) != base
        assert payload_digest({"hits": 1, "misses": 3}, None) != base
        assert payload_digest({"hits": 1, "misses": 2}, {"epoch": 5}) != base


# -- deterministic sampling ------------------------------------------------


class TestSampling:
    def test_edges(self):
        assert not should_verify("abc", 0.0)
        assert not should_verify("abc", -1.0)
        assert should_verify("abc", 1.0)
        assert should_verify("abc", 2.0)

    def test_deterministic_per_digest(self):
        digests = [f"{i:064x}" for i in range(200)]
        first = [should_verify(d, 0.3) for d in digests]
        second = [should_verify(d, 0.3) for d in digests]
        assert first == second
        assert any(first) and not all(first)

    def test_sample_nests_as_fraction_grows(self):
        digests = [f"{i:064x}" for i in range(500)]
        small = {d for d in digests if should_verify(d, 0.1)}
        large = {d for d in digests if should_verify(d, 0.5)}
        assert small <= large

    def test_rate_is_roughly_the_fraction(self):
        digests = [f"{i:064x}" for i in range(2000)]
        hit = sum(1 for d in digests if should_verify(d, 0.25))
        assert 0.18 < hit / len(digests) < 0.32


# -- the circuit breaker ---------------------------------------------------


class TestBreaker:
    def test_trip_and_reset(self):
        assert not breaker.is_tripped("vector")
        with pytest.warns(RuntimeWarning, match="circuit-broken"):
            assert breaker.trip("vector", reason="test")
        assert breaker.is_tripped("vector")
        assert "vector" in breaker.tripped()
        import os
        assert "vector" in os.environ[breaker.ENGINE_DENY_ENV]
        breaker.reset()
        assert not breaker.is_tripped("vector")

    def test_second_trip_is_a_noop(self):
        with pytest.warns(RuntimeWarning):
            assert breaker.trip("replay")
        assert not breaker.trip("replay")

    def test_loop_cannot_be_tripped(self):
        with pytest.raises(ConfigError, match="cannot be circuit-broken"):
            breaker.trip("loop")

    def test_deny_env_is_honored(self, monkeypatch):
        monkeypatch.setenv(breaker.ENGINE_DENY_ENV, "vector,replay")
        assert breaker.is_tripped("vector")
        assert breaker.is_tripped("replay")
        assert not breaker.is_tripped("stream")

    def test_resolver_skips_tripped_engines(self):
        design = AccordDesign(kind="direct", ways=1)
        cache = build_dram_cache(
            design, scaled_system(ways=1, scale=1.0 / 2048.0), seed=5
        )
        assert type(resolve_engine(cache, "auto")).__name__ == "VectorEngine"
        with pytest.warns(RuntimeWarning):
            breaker.trip("vector")
        resolved = resolve_engine(cache, "auto")
        assert type(resolved).__name__ != "VectorEngine"

    def test_explicit_request_for_tripped_engine_falls_back(self):
        design = AccordDesign(kind="direct", ways=1)
        cache = build_dram_cache(
            design, scaled_system(ways=1, scale=1.0 / 2048.0), seed=5
        )
        with pytest.warns(RuntimeWarning):
            breaker.trip("vector")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resolved = resolve_engine(cache, "vector", design=design)
        assert type(resolved).__name__ != "VectorEngine"
        with pytest.raises(SimulationError, match="circuit-broken"):
            resolve_engine(cache, "vector", strict=True, design=design)


# -- store payload digests -------------------------------------------------


class TestStorePayloadDigest:
    def test_tampered_but_valid_json_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = all_keys()[0]
        Executor(jobs=1, store=store).run([key])
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["result"]["stats"]["hits"] += 1  # stays valid JSON
        path.write_text(json.dumps(record), encoding="utf-8")

        warm = ResultStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="payload digest mismatch"):
            assert warm.get(key) is None
        assert warm.stats.quarantined == 1
        assert any((tmp_path / "quarantine").glob("*.why"))

    def test_corrupt_payload_fault_is_caught_and_healed(
        self, tmp_path, monkeypatch, baseline
    ):
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"corrupt_payload=1;dir={tmp_path / 'ledger'}",
        )
        Executor(jobs=1, store=ResultStore(tmp_path / "r")).run(all_keys())
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert (tmp_path / "ledger" / "corrupt_payload.0").exists()

        warm = ResultStore(tmp_path / "r")
        ex = Executor(jobs=1, store=warm)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            resolved = ex.run(all_keys())
        assert ex.stats.executed == 1  # only the garbled entry re-ran
        assert warm.stats.quarantined == 1
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline


# -- shadow verification ---------------------------------------------------


class TestShadowVerification:
    def test_clean_run_verifies_everything(self, baseline):
        ex = Executor(jobs=1, verify_fraction=1.0)
        resolved = ex.run(all_keys())
        assert ex.stats.verified == len(all_keys())
        assert ex.stats.mismatches == 0
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline

    def test_fraction_zero_never_samples(self):
        ex = Executor(jobs=1)
        ex.run(all_keys()[:1])
        assert ex.stats.verified == 0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError, match="verify_fraction"):
            Executor(jobs=1, verify_fraction=1.5)

    def test_injected_wrong_answer_caught_quarantined_healed(
        self, tmp_path, monkeypatch, baseline
    ):
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"corrupt_result=1;dir={tmp_path / 'ledger'}",
        )
        store = ResultStore(tmp_path / "r")
        ex = Executor(jobs=1, store=store, verify_fraction=1.0)
        with pytest.warns(RuntimeWarning, match="circuit-broken"):
            resolved = ex.run(all_keys())
        assert ex.stats.mismatches == 1
        assert ex.stats.verified == len(all_keys()) - 1
        # Both sides of the mismatch are preserved with .why sidecars.
        qdir = tmp_path / "r" / "quarantine"
        suspects = list(qdir.glob("*.suspect.json"))
        references = list(qdir.glob("*.reference.json"))
        assert len(suspects) == 1 and len(references) == 1
        why = json.loads(
            (qdir / f"{suspects[0].name}.why").read_text(encoding="utf-8")
        )
        assert why["reason"] == "shadow verification mismatch"
        assert why["engine"] in ("vector", "replay")
        assert why["suspect_digest"] != why["reference_digest"]
        # The offending engine is demoted for the rest of the process.
        assert breaker.is_tripped(why["engine"])
        # And the sweep healed: bit-identical to the fault-free run.
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline
        # The healed (reference) result is what got memoized.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stored = ResultStore(tmp_path / "r").get(all_keys()[0])
        assert stored is not None

    def test_unhealable_mismatch_raises(self, tmp_path, monkeypatch):
        # Force the suspect onto the reference engine itself: a mismatch
        # then has no more-trusted engine to heal from.
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"corrupt_result=1;dir={tmp_path / 'ledger'}",
        )
        ex = Executor(jobs=1, verify_fraction=1.0)
        with pytest.raises(VerificationError, match="no trusted engine"):
            ex.run(all_keys(engine="loop"))

    def test_on_verify_callback_streams_outcomes(self, tmp_path, monkeypatch):
        events = []
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"corrupt_result=1;dir={tmp_path / 'ledger'}",
        )
        ex = Executor(
            jobs=1, verify_fraction=1.0,
            on_verify=lambda key, outcome, detail: events.append(
                (key.digest(), outcome, detail)
            ),
        )
        with pytest.warns(RuntimeWarning, match="circuit-broken"):
            ex.run(all_keys())
        outcomes = [outcome for _, outcome, _ in events]
        assert outcomes.count("mismatch") == 1
        assert outcomes.count("ok") == len(all_keys()) - 1
        mismatch = next(d for _, o, d in events if o == "mismatch")
        assert {"engine", "suspect", "reference"} <= set(mismatch)


# -- journal integration: verification state survives a kill ---------------


class TestVerifyResume:
    def test_verified_credit_survives_resume(self, tmp_path):
        keys = all_keys()
        path = tmp_path / "sweep.journal.jsonl"
        first = SweepJournal(path)
        first.begin(keys)
        interrupted = Executor(jobs=1, journal=first, verify_fraction=1.0)
        interrupted.run(keys[:2])  # "killed" two jobs in
        assert interrupted.stats.verified == 2

        second = SweepJournal(path)
        assert second.load() == 2
        assert second.verify_outcome(keys[0]) == "ok"
        ex = Executor(jobs=1, journal=second, verify_fraction=1.0)
        resolved = ex.run(keys)
        assert ex.stats.resumed == 2
        assert ex.stats.executed == len(keys) - 2
        # Journaled verify_ok lines carry their credit across the kill:
        # nothing is re-verified, yet the summary vouches for all jobs.
        assert ex.stats.verified == len(keys)
        assert len(resolved) == len(keys)

    def test_journal_records_verify_events(self, tmp_path):
        keys = all_keys()[:1]
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.begin(keys)
        Executor(jobs=1, journal=journal, verify_fraction=1.0).run(keys)
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "j.jsonl").read_text().splitlines()
            if '"event"' in line
        ]
        assert "verify_sampled" in events
        assert "verify_ok" in events


# -- atomic quarantine sidecars --------------------------------------------


class TestAtomicWhy:
    def test_why_write_survives_injected_disk_full(
        self, tmp_path, monkeypatch
    ):
        victim = tmp_path / "aa" / "deadbeef.json"
        victim.parent.mkdir(parents=True)
        victim.write_text("{}", encoding="utf-8")
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"disk_full_why=1;dir={tmp_path / 'ledger'}",
        )
        # The entry still moves aside; only the sidecar write fails —
        # and it fails cleanly: no exception, no torn .why, no litter.
        moved = quarantine_entry(victim, tmp_path, "test reason")
        qdir = tmp_path / "quarantine"
        assert moved == qdir / victim.name
        assert not list(qdir.glob("*.why"))
        assert not list(qdir.glob(".tmp-*"))
        monkeypatch.delenv(FAULT_PLAN_ENV)

        second = tmp_path / "aa" / "cafebabe.json"
        second.write_text("{}", encoding="utf-8")
        quarantine_entry(second, tmp_path, "second reason")
        why = qdir / f"{second.name}.why"
        assert why.is_file()
        assert "second reason" in why.read_text(encoding="utf-8")


# -- the audit subcommand --------------------------------------------------


class TestAudit:
    def _filled_store(self, root):
        store = ResultStore(root)
        Executor(jobs=1, store=store).run(all_keys())
        return store

    def test_clean_store_audits_clean(self, tmp_path):
        self._filled_store(tmp_path)
        report = audit_store(tmp_path)
        assert report.scanned == len(all_keys())
        assert report.clean == report.scanned
        assert report.mismatches == 0
        assert "integrity: OK" in format_report(report)

    def test_bit_rot_found_quarantined_and_ranked(self, tmp_path):
        store = self._filled_store(tmp_path)
        path = store.path_for(all_keys()[0])
        record = json.loads(path.read_text(encoding="utf-8"))
        record["result"]["stats"]["misses"] += 7
        path.write_text(json.dumps(record), encoding="utf-8")

        report = audit_store(tmp_path)
        assert report.digest_mismatches == 1
        assert report.mismatches == 1
        assert report.quarantined_now == 1
        assert not path.exists()  # moved to quarantine
        text = format_report(report)
        assert "payload digest mismatches" in text
        assert "integrity: 1 mismatch" in text

    def test_recompute_catches_wrong_from_birth(self, tmp_path):
        store = self._filled_store(tmp_path)
        key = all_keys()[0]
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        # A result that was wrong when computed: perturb a counter AND
        # refresh the embedded digest, so only re-execution can tell.
        record["result"]["stats"]["hits"] += 1
        record["result"]["payload_digest"] = payload_digest(
            record["result"]["stats"], record["result"]["phases"]
        )
        path.write_text(json.dumps(record), encoding="utf-8")

        digest_only = audit_store(tmp_path, quarantine=False)
        assert digest_only.mismatches == 0  # digest checks cannot see it
        report = audit_store(tmp_path, recompute_fraction=1.0)
        assert report.recomputed == len(all_keys())
        assert report.recompute_mismatches == 1
        assert "WRONG ANSWERS" in format_report(report)

    def test_stale_schema_counted_not_a_mismatch(self, tmp_path):
        store = self._filled_store(tmp_path)
        path = store.path_for(all_keys()[0])
        record = json.loads(path.read_text(encoding="utf-8"))
        record["schema"] = record["schema"] - 1
        path.write_text(json.dumps(record), encoding="utf-8")
        report = audit_store(tmp_path)
        assert report.stale_schema == 1
        assert report.mismatches == 0

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.__main__ import main

        store = self._filled_store(tmp_path)
        assert main(["audit", "--results-dir", str(tmp_path),
                     "--no-traces"]) == 0
        path = store.path_for(all_keys()[0])
        record = json.loads(path.read_text(encoding="utf-8"))
        record["result"]["stats"]["hits"] += 1
        path.write_text(json.dumps(record), encoding="utf-8")
        assert main(["audit", "--results-dir", str(tmp_path),
                     "--no-traces"]) == 4
        capsys.readouterr()
