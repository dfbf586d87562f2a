"""Tests for the resilience primitives: backoff, claims, quarantine,
and the sweep journal."""

import json

import pytest

from repro.core.accord import AccordDesign
from repro.errors import ConfigError, JournalError
from repro.exec import JobKey
from repro.exec.resilience import (
    BackoffPolicy,
    SweepJournal,
    claim_done,
    clear_claim,
    complete_claim,
    quarantine_entry,
    read_claim,
    write_claim,
)


def key_for(workload="libq", seed=7):
    return JobKey(
        design=AccordDesign(kind="accord", ways=2),
        workload=workload,
        num_accesses=3000,
        warmup=0.3,
        seed=seed,
    )


class TestBackoffPolicy:
    def test_grows_exponentially_and_caps(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=0.5, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_bounds_and_determinism(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=1.0,
                               jitter=0.5, seed=3)
        for attempt in range(1, 8):
            raw = min(0.1 * 2.0 ** (attempt - 1), 1.0)
            delay = policy.delay(attempt)
            assert raw * 0.5 <= delay <= raw
            assert delay == policy.delay(attempt)  # pure function

    def test_seed_changes_schedule(self):
        a = BackoffPolicy(jitter=1.0, seed=1)
        b = BackoffPolicy(jitter=1.0, seed=2)
        assert a.delay(3) != b.delay(3)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ConfigError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ConfigError):
            BackoffPolicy(jitter=1.5)


class TestClaims:
    def test_roundtrip(self, tmp_path):
        import os

        write_claim(tmp_path, "abc")
        pid, started = read_claim(tmp_path, "abc")
        assert pid == os.getpid()
        assert started > 0
        assert not claim_done(tmp_path, "abc")
        complete_claim(tmp_path, "abc")
        assert claim_done(tmp_path, "abc")
        clear_claim(tmp_path, "abc")
        assert read_claim(tmp_path, "abc") is None
        assert not claim_done(tmp_path, "abc")

    def test_missing_and_corrupt_claims_read_as_none(self, tmp_path):
        assert read_claim(tmp_path, "nope") is None
        (tmp_path / "bad.started").write_text("garbage", encoding="ascii")
        assert read_claim(tmp_path, "bad") is None

    def test_unwritable_dir_does_not_raise(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way", encoding="utf-8")
        write_claim(blocker / "sub", "abc")  # advisory: silently dropped
        complete_claim(blocker / "sub", "abc")


class TestQuarantine:
    def test_moves_entry_and_writes_why(self, tmp_path):
        entry = tmp_path / "0d" / "entry.npz"
        entry.parent.mkdir()
        entry.write_bytes(b"bad bytes")
        sidecar = entry.with_suffix(".key.json")
        sidecar.write_text("{}", encoding="utf-8")
        moved = quarantine_entry(entry, tmp_path, "corrupt payload",
                                 extras=(sidecar,))
        qdir = tmp_path / "quarantine"
        assert moved == qdir / "entry.npz"
        assert not entry.exists() and not sidecar.exists()
        assert (qdir / "entry.npz").read_bytes() == b"bad bytes"
        assert (qdir / "entry.key.json").exists()
        why = json.loads((qdir / "entry.npz.why").read_text(encoding="utf-8"))
        assert why["reason"] == "corrupt payload"
        assert why["entry"] == "entry.npz"

    def test_missing_entry_is_harmless(self, tmp_path):
        assert quarantine_entry(tmp_path / "ghost", tmp_path, "x") is None


class TestSweepJournal:
    def keys(self):
        return [key_for(w) for w in ("soplex", "libq", "mcf")]

    def test_begin_load_roundtrip(self, tmp_path):
        from repro.exec import execute_job

        path = tmp_path / "sweep.journal.jsonl"
        journal = SweepJournal(path)
        keys = self.keys()
        journal.begin(keys, meta={"designs": "accord:2"})
        result = execute_job(keys[0])
        journal.record_done(keys[0], result)
        journal.record_event("timeout", key=keys[1].digest())

        fresh = SweepJournal(path)
        assert fresh.load() == 1
        assert fresh.header["sweep"] == SweepJournal.sweep_digest(keys)
        assert fresh.header["total"] == 3
        assert fresh.header["meta"]["designs"] == "accord:2"
        assert fresh.lookup(keys[0]) == result.to_dict()
        assert fresh.lookup(keys[1]) is None

    def test_journal_with_retired_shard_lines_still_resumes(self, tmp_path):
        """Journals written by set-sharded sweeps carry ``shard`` lines.

        The event is retired; such a journal must still resume under the
        same JOURNAL_VERSION: its ``done`` lines replay and the ``shard``
        lines are ignored, so the half-finished job simply re-runs.
        """
        from repro.exec import Executor, execute_job
        from repro.exec.resilience import JOURNAL_VERSION

        assert JOURNAL_VERSION == 1
        path = tmp_path / "old.journal.jsonl"
        keys = self.keys()
        journal = SweepJournal(path)
        journal.begin(keys)
        done = execute_job(keys[0])
        journal.record_done(keys[0], done)
        partial = execute_job(keys[1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "event": "shard",
                "key": f"{keys[1].digest()}-s0of2",
                "display": f"{keys[1].display} [shard 1/2]",
                "result": {
                    "stats": partial.stats.to_dict(),
                    "phases": None,
                    "workload": keys[1].workload,
                    "instructions_per_access": 40.0,
                },
            }) + "\n")

        resumed = SweepJournal(path)
        assert resumed.load() == 1
        assert resumed.lookup(keys[0]) == done.to_dict()
        assert resumed.lookup(keys[1]) is None
        executor = Executor(jobs=1, journal=resumed)
        results = executor.run(keys)
        assert executor.stats.resumed == 1
        assert executor.stats.executed == 2
        assert results[keys[0]].to_dict() == done.to_dict()
        assert results[keys[1]].to_dict() == partial.to_dict()

    def test_sweep_digest_order_insensitive(self):
        keys = self.keys()
        assert SweepJournal.sweep_digest(keys) == \
            SweepJournal.sweep_digest(list(reversed(keys)))
        assert SweepJournal.sweep_digest(keys) == \
            SweepJournal.sweep_digest(keys + [keys[0]])  # dedup
        assert SweepJournal.sweep_digest(keys) != \
            SweepJournal.sweep_digest(keys[:2])

    def test_torn_tail_line_tolerated(self, tmp_path):
        from repro.exec import execute_job

        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        keys = self.keys()
        journal.begin(keys)
        journal.record_done(keys[0], execute_job(keys[0]))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event":"done","key":"abc","resu')  # crash mid-append
        fresh = SweepJournal(path)
        assert fresh.load() == 1  # torn line skipped, not fatal

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.begin(self.keys())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write('{"event":"note"}\n')
            handle.write('{"event":"note"}\n')
        with pytest.raises(JournalError):
            SweepJournal(path).load()

    def test_missing_file_and_header_raise(self, tmp_path):
        with pytest.raises(JournalError):
            SweepJournal(tmp_path / "ghost.jsonl").load()
        headerless = tmp_path / "h.jsonl"
        headerless.write_text('{"event":"done"}\n', encoding="utf-8")
        with pytest.raises(JournalError):
            SweepJournal(headerless).load()

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"event":"begin","version":999,"sweep":"x","total":0}\n',
            encoding="utf-8",
        )
        with pytest.raises(JournalError):
            SweepJournal(path).load()

    def test_unwritable_journal_warns_once(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way", encoding="utf-8")
        journal = SweepJournal(blocker / "sub" / "j.jsonl")
        with pytest.raises(JournalError):
            journal.begin(self.keys())
        # Appends to an unopenable path degrade to a single warning.
        journal_append = SweepJournal(blocker / "sub" / "j.jsonl")
        with pytest.warns(RuntimeWarning, match="not writable"):
            journal_append.record_event("note")
        journal_append.record_event("note")  # silent after the first
