"""Tests for the sweep engine: job keys, result store, executor."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.accord import DESIGN_KINDS, AccordDesign
from repro.errors import ConfigError, ReproError
from repro.exec import (
    Executor,
    JobKey,
    ResultStore,
    execute_job,
    parse_design_spec,
)
from repro.exec.jobs import RESULT_SCHEMA_VERSION
from repro.sim.system import RunResult

ACCESSES = 3000  # enough post-warmup demand reads, small enough to be fast


def key_for(workload="libq", design=None, **overrides):
    design = design or AccordDesign(kind="accord", ways=2)
    kwargs = dict(num_accesses=ACCESSES, warmup=0.3, seed=7)
    kwargs.update(overrides)
    return JobKey(design=design, workload=workload, **kwargs)


class TestJobKey:
    def test_digest_is_stable(self):
        assert key_for().digest() == key_for().digest()

    @pytest.mark.parametrize("change", [
        {"seed": 8},
        {"num_accesses": ACCESSES + 1},
        {"scale": 1.0 / 256.0},
        {"warmup": 0.4},
        {"footprint_scale": 1.0 / 64.0},
    ])
    def test_digest_invalidates_on_knob_change(self, change):
        assert key_for(**change).digest() != key_for().digest()

    def test_digest_invalidates_on_design_change(self):
        other = AccordDesign(kind="accord", ways=2, pip=0.9)
        assert key_for(design=other).digest() != key_for().digest()

    def test_label_is_cosmetic(self):
        labelled = AccordDesign(kind="accord", ways=2, label="fancy name")
        assert key_for(design=labelled).digest() == key_for().digest()

    def test_footprint_scale_defaults_to_scale(self):
        key = key_for(scale=1.0 / 64.0)
        assert key.footprint_scale == 1.0 / 64.0

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            key_for(num_accesses=0)
        with pytest.raises(ConfigError):
            key_for(warmup=1.0)
        with pytest.raises(ConfigError):
            key_for(scale=0.0)


def asdict_canonical(key):
    """``JobKey.canonical()`` as written with ``dataclasses.asdict``."""
    from dataclasses import asdict

    design = asdict(key.design)
    design.pop("label")
    return {
        "schema": RESULT_SCHEMA_VERSION, "design": design,
        "workload": key.workload, "num_accesses": key.num_accesses,
        "warmup": key.warmup, "seed": key.seed, "scale": key.scale,
        "footprint_scale": key.footprint_scale, "epoch": key.epoch,
    }


class TestJobKeyCanonical:
    @pytest.mark.parametrize("kind", DESIGN_KINDS)
    def test_matches_asdict_for_every_kind(self, kind):
        key = key_for(design=AccordDesign(kind=kind, ways=2))
        assert key.canonical() == asdict_canonical(key)
        assert list(key.canonical()["design"]) == \
            list(asdict_canonical(key)["design"])

    def test_matches_asdict_for_non_default_knobs(self):
        design = AccordDesign(
            kind="sws", ways=8, pip=0.7, hashes=4, rit_entries=16,
            rlt_entries=32, region_size=8192, replacement="lru",
            partial_tag_bits=6, dcp="finite", label="custom",
        )
        key = key_for(design=design, workload="mix1", seed=3, epoch=500,
                      scale=1.0 / 256.0, footprint_scale=1.0 / 64.0)
        assert key.canonical() == asdict_canonical(key)

    @pytest.mark.parametrize("spec, knobs, digest", [
        ("accord:2", dict(workload="libq", num_accesses=3000, warmup=0.3,
                          seed=7),
         "1891a1a02ae3b2fd0e6ec75d2b3676d923d251d8887e0aa9407e62bd686285c4"),
        ("sws:8:4:replacement=lru:dcp=finite",
         dict(workload="soplex", num_accesses=40_000),
         "bf3469d101362841e4b1599578ec414f0c437820e96bbb8a94a146690f099d5d"),
        ("pws:2:pip=0.9:label=x",
         dict(workload="mcf", num_accesses=200_000, epoch=500,
              scale=1.0 / 256.0, footprint_scale=1.0 / 128.0),
         "372a7c272aff5708d80a5611f7967a43fd1a701fc21739aeaba3a9e8c527777c"),
        ("direct", dict(workload="mix1", num_accesses=1000, seed=3),
         "e3e1dec4e9a1242739b8adebf857319460199336a55728cb7a70d3e09798c5df"),
    ], ids=["accord2", "sws-lru-finite", "pws-epoch", "direct-mix"])
    def test_digest_is_pinned(self, spec, knobs, digest):
        # Pinned before canonical() was cached: store addresses persist.
        key = JobKey(design=parse_design_spec(spec), **knobs)
        assert key.digest() == digest

    def test_caller_may_mutate_the_returned_dict(self):
        key = key_for()
        expected = asdict_canonical(key)
        digest = key.digest()
        first = key.canonical()
        first["seed"] = 99
        first["design"]["ways"] = 16
        first.pop("workload")
        assert key.canonical() == expected
        assert key.canonical() is not key.canonical()
        assert key.digest() == digest


class TestRunResultRoundTrip:
    def test_to_from_dict(self):
        result = execute_job(key_for())
        clone = RunResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.hit_rate == result.hit_rate
        assert clone.prediction_accuracy == result.prediction_accuracy
        assert clone.runtime_ns == result.runtime_ns
        assert clone.design == result.design
        assert clone.stats.extras == result.stats.extras

    def test_survives_json(self):
        result = execute_job(key_for())
        clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.to_dict() == result.to_dict()

    def test_malformed_rejected(self):
        with pytest.raises(ReproError):
            RunResult.from_dict({"workload": "libq"})
        good = execute_job(key_for()).to_dict()
        good["timing"]["not_a_field"] = 1.0
        with pytest.raises(ReproError):
            RunResult.from_dict(good)


def introspected_result_dict(result):
    """``RunResult.to_dict()`` as written with ``asdict``/``fields()``."""
    from dataclasses import asdict, fields

    from repro.verify.digest import payload_digest

    stats = {}
    for f in fields(result.stats):
        value = getattr(result.stats, f.name)
        stats[f.name] = dict(value) if f.name == "extras" else value
    phases = None
    if result.phases is not None:
        phases = {
            "epoch": result.phases.epoch,
            "samples": [asdict(sample) for sample in result.phases.samples],
        }
    return {
        "design": asdict(result.design),
        "workload": result.workload,
        "stats": stats,
        "timing": asdict(result.timing),
        "instructions": result.instructions,
        "phases": phases,
        "hit_rate": result.hit_rate,
        "prediction_accuracy": result.prediction_accuracy,
        "runtime_ns": result.runtime_ns,
        "payload_digest": payload_digest(stats, phases),
    }


class TestRecordSerialization:
    """to_dict/from_dict read field-name tuples, not the dataclasses."""

    @staticmethod
    def _result(kind, epoch):
        design = AccordDesign(kind=kind, ways=1 if kind == "direct" else 2,
                              label=f"{kind} label")
        result = execute_job(key_for(design=design, epoch=epoch))
        result.stats.extras["custom_counter"] = 3
        return result

    @pytest.mark.parametrize("epoch", [None, 500], ids=["flat", "phased"])
    @pytest.mark.parametrize("kind", DESIGN_KINDS)
    def test_to_dict_matches_introspection(self, kind, epoch):
        from dataclasses import asdict

        result = self._result(kind, epoch)
        expected = introspected_result_dict(result)
        record = result.to_dict()
        assert record == expected
        assert list(record["stats"]) == list(expected["stats"])
        assert result.stats.to_dict() == asdict(result.stats)
        assert record["stats"]["extras"]["custom_counter"] == 3
        clone = RunResult.from_dict(json.loads(json.dumps(record)))
        assert clone.to_dict() == record
        assert clone.design == result.design

    def test_phases_present_when_requested(self):
        assert self._result("accord", 500).phases is not None
        assert self._result("accord", None).phases is None

    @pytest.mark.parametrize("block, field", [
        ("stats", "not_a_counter"), ("timing", "not_a_timing"),
    ])
    def test_unknown_fields_rejected(self, block, field):
        record = self._result("accord", 500).to_dict()
        record[block][field] = 1
        with pytest.raises(ReproError, match=f"unknown .*{field}"):
            RunResult.from_dict(record)

    def test_unknown_phase_sample_field_rejected(self):
        record = self._result("accord", 500).to_dict()
        record["phases"]["samples"][0]["not_a_sample_field"] = 1
        with pytest.raises(ReproError, match="unknown PhaseSample"):
            RunResult.from_dict(record)

    def test_non_mapping_stats_rejected(self):
        record = self._result("accord", None).to_dict()
        record["stats"] = ["hits"]
        with pytest.raises(ReproError):
            RunResult.from_dict(record)


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_for()
        assert store.get(key) is None
        result = execute_job(key)
        store.put(key, result)
        assert key in store
        assert len(store) == 1
        assert store.get(key).to_dict() == result.to_dict()

    def test_knob_change_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_for()
        store.put(key, execute_job(key))
        assert store.get(key_for(seed=8)) is None
        assert store.get(key_for(num_accesses=ACCESSES + 1)) is None
        assert store.get(key_for(scale=1.0 / 256.0)) is None

    def test_corrupt_entry_discarded_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_for()
        store.put(key, execute_job(key))
        path = store.path_for(key)
        path.write_text("{ not json", encoding="utf-8")
        assert store.get(key) is None
        assert not path.exists()  # discarded

    def test_tampered_key_discarded(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_for()
        store.put(key, execute_job(key))
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["key"]["seed"] = 99
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.get(key) is None
        assert not path.exists()

    def test_unwritable_store_degrades(self, tmp_path):
        # A store rooted under a *file* can never be written (even by
        # root, unlike a chmod'd directory).
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way", encoding="utf-8")
        store = ResultStore(blocker / "sub")
        key = key_for()
        result = execute_job(key)
        with pytest.warns(RuntimeWarning):
            store.put(key, result)
        store.put(key, result)  # subsequent puts are silent no-ops
        assert store.get(key) is None
        # Every swallowed write is surfaced as a stat, not just the
        # first (warned-about) one.
        assert store.stats.degraded_writes == 2

    def test_corrupt_entry_quarantined_with_reason(self, tmp_path):
        store = ResultStore(tmp_path)
        key = key_for()
        store.put(key, execute_job(key))
        path = store.path_for(key)
        path.write_text("{ not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get(key) is None
        assert store.stats.quarantined == 1
        qdir = tmp_path / "quarantine"
        assert (qdir / path.name).read_text(encoding="utf-8") == "{ not json"
        why = json.loads((qdir / f"{path.name}.why").read_text("utf-8"))
        assert "unreadable" in why["reason"]
        assert len(store) == 0  # the quarantine directory is not an entry

    def test_mismatched_schema_entry_quarantined_and_rerun(self, tmp_path):
        # An entry whose result no longer matches the RunResult schema
        # (e.g. written by a different version) must be quarantined and
        # the job re-run, never crash or serve garbage.
        store = ResultStore(tmp_path)
        key = key_for()
        fresh = execute_job(key)
        store.put(key, fresh)
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["result"]["timing"]["not_a_field"] = 1.0
        path.write_text(json.dumps(record), encoding="utf-8")

        ex = Executor(jobs=1, store=store)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = ex.run([key])
        assert ex.stats.executed == 1 and ex.stats.cached == 0
        assert store.stats.quarantined == 1
        assert results[key].to_dict() == fresh.to_dict()
        assert store.get(key) is not None  # re-run result was re-stored

    def test_stale_schema_version_is_quarantined_miss(self, tmp_path):
        # An entry written under an older RESULT_SCHEMA_VERSION (its
        # payload may even still parse) must be a miss, never trusted.
        from repro.exec.jobs import RESULT_SCHEMA_VERSION

        store = ResultStore(tmp_path)
        key = key_for()
        store.put(key, execute_job(key))
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["schema"] = RESULT_SCHEMA_VERSION - 1
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="stale result schema"):
            assert store.get(key) is None
        assert store.stats.quarantined == 1
        qdir = tmp_path / "quarantine"
        why = json.loads((qdir / f"{path.name}.why").read_text("utf-8"))
        assert "stale result schema" in why["reason"]


def _pool():
    from repro.exec import executor as executor_module

    return executor_module._POOL


def _worker_pids():
    return set(_pool().processes._processes)


def _process_gone(pid):
    """True once ``pid`` has exited (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state == "Z"


_EXIT_SCRIPT = """
import json
from repro.core.accord import AccordDesign
from repro.exec import Executor, JobKey
from repro.exec import executor as executor_module

def key(kind, workload):
    return JobKey(design=AccordDesign(kind=kind, ways=2), workload=workload,
                  num_accesses=3000, warmup=0.3, seed=7)

Executor(jobs=2).run([key("accord", "libq"), key("accord", "mcf")])
Executor(jobs=2).run([key(kind, "soplex") for kind in ("accord", "pws", "gws")])
pool = executor_module._POOL
print(json.dumps({"pids": sorted(pool.processes._processes)}))
"""


class TestExecutorLifecycle:
    """The process-wide worker pool behind every parallel run."""

    def keys(self):
        return [key_for(workload=w) for w in ("soplex", "libq", "mcf")]

    def test_run_leaves_the_shared_pool_running(self):
        ex = Executor(jobs=2)
        results = ex.run(self.keys())
        assert len(results) == 3
        assert _pool() is not None  # kept for the next parallel run
        assert _pool().identity[0] == 2

    def test_persistent_pool_reused_across_runs(self):
        ex = Executor(jobs=2)
        try:
            first = ex.run(self.keys())
            pool = _pool()
            assert pool is not None
            second = ex.run(self.keys())
            assert _pool() is pool  # same pool, not rebuilt per run
            for key, result in first.items():
                assert second[key].to_dict() == result.to_dict()
        finally:
            ex.shutdown()
        assert _pool() is None
        ex.shutdown()  # idempotent, safe to repeat

    def test_usable_again_after_shutdown(self):
        ex = Executor(jobs=2)
        baseline = ex.run(self.keys())
        ex.shutdown()
        again = ex.run(self.keys())  # forks a fresh pool transparently
        assert _pool() is not None
        ex.shutdown()
        for key, result in baseline.items():
            assert again[key].to_dict() == result.to_dict()

    def test_context_manager(self):
        with Executor(jobs=2) as ex:
            ex.run(self.keys())
            assert _pool() is not None
        assert _pool() is None

    def test_successive_executors_see_the_same_workers(self):
        Executor(jobs=2).run(self.keys())
        pool, pids = _pool(), _worker_pids()
        assert len(pids) == 2
        Executor(jobs=2).run(self.keys())
        assert _pool() is pool
        assert _worker_pids() == pids

    def test_other_worker_count_forks_a_new_pool(self):
        Executor(jobs=2).run(self.keys())
        pids = _worker_pids()
        Executor(jobs=3).run(self.keys())
        assert _pool().identity[0] == 3
        assert not _worker_pids() & pids
        assert all(_process_gone(pid) for pid in pids)

    def test_changed_repro_variable_forks_workers_that_see_it(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_POOL_TEST_MARK", "first")
        Executor(jobs=2).run(self.keys())
        old = _worker_pids()
        seen = _pool().processes.submit(
            os.getenv, "REPRO_POOL_TEST_MARK"
        ).result(timeout=30)
        assert seen == "first"
        monkeypatch.setenv("REPRO_POOL_TEST_MARK", "second")
        Executor(jobs=2).run(self.keys())
        assert not _worker_pids() & old
        seen = _pool().processes.submit(
            os.getenv, "REPRO_POOL_TEST_MARK"
        ).result(timeout=30)
        assert seen == "second"

    def test_breaker_trip_forks_workers_that_see_it(self):
        from repro.verify import breaker

        Executor(jobs=2).run(self.keys())
        old = _worker_pids()
        try:
            with pytest.warns(RuntimeWarning, match="circuit-broken"):
                breaker.trip("vector", reason="test")
            Executor(jobs=2).run(self.keys())
            assert not _worker_pids() & old
            seen = _pool().processes.submit(
                breaker.is_tripped, "vector"
            ).result(timeout=30)
            assert seen
        finally:
            breaker.reset()

    def test_killed_worker_retires_the_pool(self):
        ex = Executor(jobs=2)
        baseline = ex.run(self.keys())
        pids = _worker_pids()
        os.kill(next(iter(pids)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not _pool().processes._broken:
            assert time.monotonic() < deadline, "pool never noticed the kill"
            time.sleep(0.01)
        again = ex.run(self.keys())
        assert ex.stats.pool_breaks == 0  # retired before any submission
        assert not _worker_pids() & pids
        for key, result in baseline.items():
            assert again[key].to_dict() == result.to_dict()

    def test_concurrent_executors_and_retires_lose_no_task(self):
        """Threads share the pool while another keeps retiring it."""
        import threading

        from repro.exec import retire_pool

        keys = self.keys()
        expected = {
            key: result.to_dict()
            for key, result in Executor(jobs=1).run(keys).items()
        }
        failures, stop = [], threading.Event()

        def runner():
            try:
                for _ in range(3):
                    got = Executor(jobs=3).run(keys)  # more workers than CPUs
                    if {k: r.to_dict() for k, r in got.items()} != expected:
                        failures.append("results differ")
            except Exception as exc:  # reported through ``failures``
                failures.append(repr(exc))

        def retirer():
            while not stop.is_set():
                retire_pool()
                time.sleep(0.01)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=runner) for _ in range(4)]
            chaos = threading.Thread(target=retirer)
            chaos.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stop.set()
            chaos.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [chaos])
        assert failures == []

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_exit_leaves_no_worker(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src),
                   REPRO_RESULTS_DIR=str(tmp_path / "store"),
                   REPRO_TRACE_DIR=str(tmp_path / "traces"))
        done = subprocess.run(
            [sys.executable, "-c", _EXIT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr
        report = json.loads(done.stdout)
        assert len(report["pids"]) == 2
        assert all(_process_gone(pid) for pid in report["pids"])


class TestExecutor:
    DESIGNS = (
        AccordDesign(kind="direct", ways=1),
        AccordDesign(kind="accord", ways=2),
    )
    WORKLOADS = ("soplex", "libq", "mcf", "sphinx")  # the quick suite

    def keys(self):
        return [
            key_for(workload=w, design=d)
            for d in self.DESIGNS
            for w in self.WORKLOADS
        ]

    def test_parallel_bit_identical_to_serial(self):
        serial = Executor(jobs=1).run(self.keys())
        parallel = Executor(jobs=4).run(self.keys())
        assert set(serial) == set(parallel)
        for key, result in serial.items():
            assert parallel[key].to_dict() == result.to_dict()

    def test_warm_store_skips_simulation(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = Executor(jobs=1, store=store)
        first = cold.run(self.keys())
        assert cold.stats.executed == len(self.keys())
        assert cold.stats.cached == 0

        warm = Executor(jobs=1, store=ResultStore(tmp_path))
        second = warm.run(self.keys())
        assert warm.stats.executed == 0
        assert warm.stats.cached == len(self.keys())
        for key, result in first.items():
            assert second[key].to_dict() == result.to_dict()

    def test_store_invalidation_reruns(self, tmp_path):
        store = ResultStore(tmp_path)
        ex = Executor(jobs=1, store=store)
        ex.run([key_for()])
        ex.run([key_for(seed=8)])
        assert ex.stats.executed == 1  # different seed: not served warm

    def test_duplicate_keys_run_once(self):
        ex = Executor(jobs=1)
        results = ex.run([key_for(), key_for()])
        assert ex.stats.executed == 1
        assert len(results) == 1

    def test_progress_reporting(self, tmp_path):
        events = []
        store = ResultStore(tmp_path)
        ex = Executor(jobs=1, store=store,
                      progress=lambda d, t, k, s: events.append((d, t, s)))
        ex.run([key_for()])
        assert events == [(1, 1, "run")]
        events.clear()
        Executor(jobs=1, store=store,
                 progress=lambda d, t, k, s: events.append((d, t, s))
                 ).run([key_for()])
        assert events == [(1, 1, "cached")]

    def test_cached_result_keeps_caller_label(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(jobs=1, store=store).run([key_for()])
        labelled = AccordDesign(kind="accord", ways=2, label="mine")
        key = key_for(design=labelled)
        warm = Executor(jobs=1, store=store)
        results = warm.run([key])
        assert warm.stats.cached == 1
        assert results[key].design.label == "mine"

    def test_simulation_errors_propagate(self):
        bad = key_for(workload="no_such_workload")
        with pytest.raises(ReproError):
            Executor(jobs=1).run([bad])
        with pytest.raises(ReproError):
            Executor(jobs=2).run([bad, key_for(workload="also_bogus")])

    def test_rejects_bad_concurrency(self):
        with pytest.raises(ConfigError):
            Executor(jobs=0)
        with pytest.raises(ConfigError):
            Executor(retries=-1)


class TestDesignSpecParsing:
    def test_kind_only(self):
        assert parse_design_spec("direct") == AccordDesign(kind="direct", ways=1)

    def test_kind_and_ways(self):
        assert parse_design_spec("accord:2") == AccordDesign(kind="accord", ways=2)

    def test_sws_hashes_positional(self):
        design = parse_design_spec("sws:8:4")
        assert design.ways == 8 and design.hashes == 4

    def test_key_value_fields(self):
        design = parse_design_spec("pws:2:pip=0.9")
        assert design.pip == 0.9
        design = parse_design_spec("accord:2:replacement=lru:region_size=8192")
        assert design.replacement == "lru" and design.region_size == 8192

    @pytest.mark.parametrize("bad", [
        "", "bogus", "accord:two", "accord:2:pip", "accord:2:nope=1",
        "pws:2:pip=abc",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_design_spec(bad)

    @pytest.mark.parametrize("bad,field", [
        ("unbiased:2:replacement=foo", "replacement"),
        ("pws:2:replacement=", "replacement"),
        ("serial:2:dcp=foo", "dcp"),
        ("serial:2:dcp=EXACT", "dcp"),
    ])
    def test_rejects_unknown_policy_names(self, bad, field):
        with pytest.raises(ConfigError, match=f"unknown {field}"):
            parse_design_spec(bad)

    def test_accepts_every_policy_name(self):
        from repro.cache.replacement import REPLACEMENT_NAMES
        from repro.core.accord import DCP_MODES

        for name in REPLACEMENT_NAMES + ("LRU",):
            spec = f"unbiased:2:replacement={name}"
            assert parse_design_spec(spec).replacement == name
        for mode in DCP_MODES:
            assert parse_design_spec(f"serial:2:dcp={mode}").dcp == mode

    @pytest.mark.parametrize("field", ["replacement=foo", "dcp=foo"])
    def test_sweep_refuses_unknown_policy_names_up_front(self, field, capsys):
        """Exit 2 before the sweep starts, like an unknown kind."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as info:
            main(["sweep", "--designs", f"unbiased:2:{field}", "--no-store",
                  "--no-journal"])
        assert info.value.code == 2
        assert f"unknown {field.split('=')[0]}" in capsys.readouterr().err
