"""Tests for the CPU front-end and the L3-filtering effect."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.errors import SimulationError, WorkloadError
from repro.sim.frontend import (
    FrontendKey,
    FrontendSpec,
    RawAccessGenerator,
    filtered_frontend,
    mru_accuracy_at_level,
    run_frontend,
)


class TestRawGenerator:
    def test_deterministic(self):
        spec = FrontendSpec()
        a = list(RawAccessGenerator(spec, seed=3).accesses(2000))
        b = list(RawAccessGenerator(spec, seed=3).accesses(2000))
        assert a == b

    def test_exact_count(self):
        stream = list(RawAccessGenerator(FrontendSpec(), seed=1).accesses(777))
        assert len(stream) == 777

    def test_word_level_reuse(self):
        # Consecutive accesses frequently share a line (L1 locality).
        stream = list(RawAccessGenerator(FrontendSpec(), seed=1).accesses(4000))
        same_line = sum(
            1
            for i in range(1, len(stream))
            if stream[i][0] // 64 == stream[i - 1][0] // 64
        )
        assert same_line / len(stream) > 0.5

    def test_write_fraction(self):
        stream = list(RawAccessGenerator(FrontendSpec(), seed=1).accesses(8000))
        writes = sum(w for _, w in stream)
        assert 0.18 < writes / 8000 < 0.32

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            FrontendSpec(hot_objects=100, total_objects=50)
        with pytest.raises(WorkloadError):
            FrontendSpec(burst_lines=0)
        with pytest.raises(WorkloadError):
            FrontendSpec(words_per_line=0)

    def test_count_validation(self):
        with pytest.raises(WorkloadError):
            list(RawAccessGenerator(FrontendSpec()).accesses(0))


class TestRunFrontend:
    def _result(self, raw=40_000):
        return run_frontend(
            FrontendSpec(),
            raw,
            seed=5,
            l1=CacheGeometry(16 * 1024, 8),
            l2=CacheGeometry(128 * 1024, 8),
            l3=CacheGeometry(1024 * 1024, 16),
        )

    def test_filtering_happens(self):
        result = self._result()
        assert result.l1_hit_rate > 0.6  # word-level reuse absorbed
        assert 0.0 < result.filter_rate < 1.0
        assert result.dram_cache_reads < result.raw_accesses

    def test_trace_is_line_granular_misses(self):
        result = self._result()
        trace = result.dram_cache_trace
        assert len(trace) > 0
        assert trace.instructions_per_access > 3.0  # rescaled upward

    def test_filtered_stream_loses_line_reuse(self):
        """The defining property: consecutive same-line accesses are gone."""
        result = self._result()
        addrs = result.dram_cache_trace.addrs
        same_line = sum(
            1
            for i in range(1, len(addrs))
            if addrs[i] // 64 == addrs[i - 1] // 64
        )
        assert same_line / max(len(addrs), 1) < 0.05

    def test_validation(self):
        with pytest.raises(SimulationError):
            run_frontend(FrontendSpec(), 0)


class TestMruFilteringEffect:
    def test_mru_worse_after_filtering(self):
        """The paper's Section II-D claim, end to end."""
        spec = FrontendSpec()
        raw = 120_000
        result = run_frontend(
            spec, raw, seed=7,
            l1=CacheGeometry(16 * 1024, 8),
            l2=CacheGeometry(128 * 1024, 8),
            l3=CacheGeometry(1024 * 1024, 16),
        )
        geometry = CacheGeometry(8 * 1024 * 1024, 2)
        raw_accuracy = mru_accuracy_at_level(
            RawAccessGenerator(spec, seed=7).accesses(raw), geometry
        )
        filtered_accuracy = mru_accuracy_at_level(
            zip(result.dram_cache_trace.addrs, result.dram_cache_trace.writes),
            geometry,
        )
        assert raw_accuracy > 0.95
        assert filtered_accuracy < raw_accuracy - 0.05


class TestMruAccuracyEngine:
    def test_matches_per_address_loop(self):
        """The engine-driven measurement equals reading one address at a time."""
        from repro.cache.dram_cache import DramCache
        from repro.cache.lookup import WayPredictedLookup
        from repro.cache.replacement import RandomReplacement
        from repro.core.prediction import MruPredictor
        from repro.core.steering import UnbiasedSteering
        from repro.utils.rng import XorShift64

        spec = FrontendSpec()
        raw = 120_000
        result = run_frontend(
            spec, raw, seed=7,
            l1=CacheGeometry(16 * 1024, 8),
            l2=CacheGeometry(128 * 1024, 8),
            l3=CacheGeometry(1024 * 1024, 16),
        )
        geometry = CacheGeometry(8 * 1024 * 1024, 2)
        streams = (
            lambda: RawAccessGenerator(spec, seed=7).accesses(raw),
            lambda: zip(
                result.dram_cache_trace.addrs, result.dram_cache_trace.writes
            ),
        )
        for stream in streams:
            cache = DramCache(
                geometry,
                lookup=WayPredictedLookup(),
                steering=UnbiasedSteering(geometry),
                predictor=MruPredictor(geometry),
                replacement=RandomReplacement(XorShift64(1)),
            )
            for addr, is_write in stream():
                if not is_write:
                    cache.read(addr)
            expected = cache.stats.prediction_accuracy
            assert mru_accuracy_at_level(stream(), geometry) == expected


# -- the memoized front end ----------------------------------------------------

SMALL_LEVELS = dict(
    l1=CacheGeometry(4 * 1024, 4),
    l2=CacheGeometry(16 * 1024, 4),
    l3=CacheGeometry(64 * 1024, 8),
)
RAW = 6000


@pytest.fixture
def trace_dir(tmp_path, monkeypatch):
    root = tmp_path / "traces"
    monkeypatch.setenv("REPRO_TRACE_DIR", str(root))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    return root


def _entries(root):
    return sorted(
        path for path in root.glob("[0-9a-f][0-9a-f]/*")
        if not path.name.startswith(".tmp-")
    )


def assert_results_equal(a, b):
    assert a.raw_accesses == b.raw_accesses
    assert a.l1_hit_rate == b.l1_hit_rate
    assert a.l2_hit_rate == b.l2_hit_rate
    assert a.l3_hit_rate == b.l3_hit_rate
    assert a.filter_rate == b.filter_rate
    assert a.dram_cache_reads == b.dram_cache_reads
    assert a.dram_cache_trace == b.dram_cache_trace  # name, ipa, columns


class TestMruAccuracyOnTraces:
    def test_trace_forms_match_pair_iterables(self):
        """A Trace (with or without writes) measures like its (addr,
        is_write) pairs."""
        from repro.sim.trace import Trace

        result = run_frontend(FrontendSpec(), 20_000, seed=3, **SMALL_LEVELS)
        trace = result.dram_cache_trace
        assert trace.write_count > 0
        geometry = CacheGeometry(256 * 1024, 2)
        expected = mru_accuracy_at_level(
            zip(trace.addrs, trace.writes), geometry
        )
        assert mru_accuracy_at_level(trace, geometry) == expected
        mmap_like = Trace(
            "arrays", np.asarray(trace.addrs, dtype=np.int64),
            np.frombuffer(bytes(trace.writes), dtype=np.uint8), 2.0,
        )
        assert mru_accuracy_at_level(mmap_like, geometry) == expected
        reads = [a for a, w in zip(trace.addrs, trace.writes) if not w]
        reads_only = Trace("reads", reads, bytearray(len(reads)), 1.0)
        assert mru_accuracy_at_level(reads_only, geometry) == expected


class TestFilteredFrontend:
    def _call(self):
        return filtered_frontend(FrontendSpec(), RAW, seed=5, **SMALL_LEVELS)

    def test_cold_and_warm_equal_uncached(self, trace_dir):
        expected = run_frontend(FrontendSpec(), RAW, seed=5, **SMALL_LEVELS)
        cold, _ = self._call()
        assert len(_entries(trace_dir)) == 4  # two npz + two sidecars
        warm, _ = self._call()
        assert isinstance(warm.dram_cache_trace.numpy_addrs(), np.memmap)
        assert_results_equal(cold, expected)
        assert_results_equal(warm, expected)

    def test_filtered_part_alone(self, trace_dir):
        expected = run_frontend(FrontendSpec(), RAW, seed=5, **SMALL_LEVELS)
        for _ in range(2):  # cold (stores both parts), then warm
            result, raw_reads = filtered_frontend(
                FrontendSpec(), RAW, seed=5, with_raw_reads=False,
                **SMALL_LEVELS,
            )
            assert raw_reads is None
            assert_results_equal(result, expected)
            assert len(_entries(trace_dir)) == 4
        assert isinstance(result.dram_cache_trace.numpy_addrs(), np.memmap)

    def test_raw_reads_are_the_generator_reads(self, trace_dir):
        expected = [
            addr
            for addr, is_write in RawAccessGenerator(
                FrontendSpec(), seed=5
            ).accesses(RAW)
            if not is_write
        ]
        for _ in range(2):  # cold, then loaded from the cache
            _, raw_reads = self._call()
            assert raw_reads.addrs == expected
            assert raw_reads.write_count == 0

    def test_hierarchy_defaults_resolve_into_the_key(self, trace_dir):
        """Omitted levels key on CacheHierarchy's default geometries."""
        implicit, _ = filtered_frontend(FrontendSpec(), 2000, seed=2)
        explicit, _ = filtered_frontend(
            FrontendSpec(), 2000, seed=2,
            l1=CacheGeometry(32 * 1024, 8),
            l2=CacheGeometry(256 * 1024, 8),
            l3=CacheGeometry(8 * 1024 * 1024, 16),
        )
        assert len(_entries(trace_dir)) == 4
        assert_results_equal(implicit, explicit)

    def test_key_digest_covers_every_input(self):
        from dataclasses import fields, replace

        base_spec = FrontendSpec()
        levels = tuple(SMALL_LEVELS[name] for name in ("l1", "l2", "l3"))
        base = FrontendKey(base_spec, RAW, 5, levels, 3.0)
        variants = [replace(base, part="raw-reads"),
                    replace(base, raw_accesses=RAW + 1),
                    replace(base, seed=6),
                    replace(base, instructions_per_access=3.5)]
        for field in fields(FrontendSpec):
            value = getattr(base_spec, field.name)
            # Stay inside the spec's validation ranges.
            bumped = value / 2 if isinstance(value, float) else value - 1
            variants.append(replace(
                base, spec=replace(base_spec, **{field.name: bumped})
            ))
        for index in range(3):
            for geometry in (CacheGeometry(8 * 1024, 4),
                             CacheGeometry(4 * 1024, 2),
                             CacheGeometry(4 * 1024, 4, line_size=128)):
                changed = list(levels)
                changed[index] = geometry
                variants.append(replace(base, levels=tuple(changed)))
        digests = {key.digest() for key in variants}
        assert base.digest() not in digests
        assert len(digests) == len(variants)
        assert base.digest() == FrontendKey(
            FrontendSpec(), RAW, 5,
            tuple(CacheGeometry(g.capacity_bytes, g.ways) for g in levels),
            3.0,
        ).digest()

    def _filtered_entry(self, trace_dir):
        levels = tuple(SMALL_LEVELS[name] for name in ("l1", "l2", "l3"))
        digest = FrontendKey(FrontendSpec(), RAW, 5, levels, 3.0).digest()
        npz = trace_dir / digest[:2] / f"{digest}.npz"
        return npz, npz.with_suffix(".key.json")

    def _assert_heals(self, trace_dir, expected):
        with pytest.warns(RuntimeWarning, match="quarantined"):
            healed, _ = self._call()
        assert_results_equal(healed, expected)
        assert (trace_dir / "quarantine").is_dir()
        rewarm, _ = self._call()  # the recompute was stored again
        assert isinstance(rewarm.dram_cache_trace.numpy_addrs(), np.memmap)
        assert_results_equal(rewarm, expected)

    def test_truncated_npz_is_quarantined_and_recomputed(self, trace_dir):
        expected, _ = self._call()
        npz, _ = self._filtered_entry(trace_dir)
        data = npz.read_bytes()
        npz.write_bytes(data[: len(data) // 2])
        self._assert_heals(trace_dir, expected)

    @pytest.mark.parametrize("tamper", [
        lambda record: record.pop("meta"),
        lambda record: record.__setitem__("meta", [1, 2, 3]),
        lambda record: record["meta"].__setitem__("l2", [5.0, 10]),
        lambda record: record["meta"].__setitem__("l3", [11, 10]),
        lambda record: record["meta"].__setitem__("cpu_accesses", True),
        lambda record: record["meta"].pop("l1"),
        lambda record: record.__setitem__("key", "{}"),
    ])
    def test_tampered_sidecar_is_quarantined_and_recomputed(
        self, trace_dir, tamper
    ):
        import json

        expected, _ = self._call()
        _, sidecar = self._filtered_entry(trace_dir)
        record = json.loads(sidecar.read_text())
        tamper(record)
        sidecar.write_text(json.dumps(record))
        self._assert_heals(trace_dir, expected)

    def test_cache_disabled_writes_nothing(self, trace_dir, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        expected = run_frontend(FrontendSpec(), RAW, seed=5, **SMALL_LEVELS)
        result, _ = self._call()
        assert_results_equal(result, expected)
        assert not trace_dir.exists()

    def test_entries_audit_clean(self, trace_dir):
        from repro.verify.audit import AuditReport, audit_traces

        self._call()
        report = audit_traces(AuditReport(root=str(trace_dir)), trace_dir)
        assert report.traces_scanned == 2
        assert report.traces_clean == 2


class TestMruFilteringAblation:
    def _settings(self):
        from dataclasses import replace

        from repro.experiments.common import Settings

        return replace(Settings().quick(), num_accesses=4000)

    def _count_accesses(self, monkeypatch):
        from repro.cache.hierarchy import CacheHierarchy

        calls = []
        original = CacheHierarchy.access

        def counting(self, addr, is_write=False):
            calls.append(addr)
            return original(self, addr, is_write)

        monkeypatch.setattr(CacheHierarchy, "access", counting)
        return calls

    def test_warm_call_simulates_no_sram_access(self, trace_dir, monkeypatch):
        from repro.experiments.ablations import run_mru_filtering

        calls = self._count_accesses(monkeypatch)
        cold = run_mru_filtering(self._settings())
        assert len(calls) == 8000
        calls.clear()
        warm = run_mru_filtering(self._settings())
        assert calls == []
        assert warm == cold

    def test_report_identical_with_cache_disabled(self, trace_dir, monkeypatch):
        from repro.experiments.ablations import run_mru_filtering

        cached = run_mru_filtering(self._settings())
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        trace_dir_files = _entries(trace_dir)
        calls = self._count_accesses(monkeypatch)
        assert run_mru_filtering(self._settings()) == cached
        assert len(calls) == 8000
        assert _entries(trace_dir) == trace_dir_files

    def _engine_drives(self, monkeypatch):
        import repro.sim.engines as engines

        drives = []
        resolve = engines.resolve_engine
        monkeypatch.setattr(
            engines, "resolve_engine",
            lambda cache, *args, **kwargs: drives.append(cache) or resolve(
                cache, *args, **kwargs),
        )
        return drives

    def _payload_loads(self, monkeypatch):
        import repro.workloads.trace_cache as trace_cache_module

        names = []
        load = trace_cache_module.load_trace_npz

        def spy(*args, **kwargs):
            trace = load(*args, **kwargs)
            names.append(trace.name)
            return trace

        monkeypatch.setattr(trace_cache_module, "load_trace_npz", spy)
        return names

    def _mru_sidecar(self, trace_dir):
        sidecars = [
            path for path in trace_dir.glob("*/*.key.json")
            if '\\"experiment\\":\\"mru-filtering\\"' in path.read_text()
        ]
        assert len(sidecars) == 1
        return sidecars[0]

    def test_warm_run_in_another_process_drives_no_engine(
        self, trace_dir, monkeypatch
    ):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.experiments.ablations import run_mru_filtering

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        code = (
            "from dataclasses import replace; "
            "from repro.experiments.common import Settings; "
            "from repro.experiments.ablations import run_mru_filtering; "
            "print(run_mru_filtering(replace(Settings().quick(), "
            "num_accesses=4000)), end='')"
        )
        cold = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=300,
        ).stdout
        assert len(list(trace_dir.glob("*/*.npz"))) == 3  # + the MRU memo
        drives = self._engine_drives(monkeypatch)
        loads = self._payload_loads(monkeypatch)
        calls = self._count_accesses(monkeypatch)
        assert run_mru_filtering(self._settings()) == cold
        assert drives == [] and calls == []
        assert loads == ["frontend"]  # the raw-reads payload stays shut

    @pytest.mark.parametrize("tamper", [
        lambda meta: meta["mru_accuracies"].__setitem__(0, 0.5),
        lambda meta: meta.__setitem__("sha256", "0" * 64),
        lambda meta: meta["mru_accuracies"].append(0.5),
        lambda meta: meta.pop("sha256"),
    ], ids=["edited-accuracy", "edited-digest", "long", "no-digest"])
    def test_tampered_accuracies_are_quarantined_and_recomputed(
        self, trace_dir, monkeypatch, tamper
    ):
        import json

        from repro.experiments.ablations import run_mru_filtering

        expected = run_mru_filtering(self._settings())
        sidecar = self._mru_sidecar(trace_dir)
        record = json.loads(sidecar.read_text())
        tamper(record["meta"])
        sidecar.write_text(json.dumps(record))
        drives = self._engine_drives(monkeypatch)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert run_mru_filtering(self._settings()) == expected
        assert len(drives) == 2  # both accuracies recomputed
        assert len(list((trace_dir / "quarantine").glob("*.npz"))) == 1
        drives.clear()
        # The recompute was stored again; the next run reads it cleanly.
        assert run_mru_filtering(self._settings()) == expected
        assert drives == []

    def test_key_digest_covers_every_input(self):
        from dataclasses import replace

        from repro.experiments.ablations import MruKey

        levels = tuple(SMALL_LEVELS[name] for name in ("l1", "l2", "l3"))
        frontend = FrontendKey(FrontendSpec(), RAW, 5, levels, 3.0)
        base = MruKey(frontend, CacheGeometry(8 * 1024 * 1024, 2), 5)
        variants = [
            replace(base, frontend=replace(frontend, seed=6)),
            replace(base, frontend=replace(frontend, raw_accesses=RAW + 1)),
            replace(base, geometry=CacheGeometry(8 * 1024 * 1024, 4)),
            replace(base, geometry=CacheGeometry(4 * 1024 * 1024, 2)),
            replace(base, seed=6),
        ]
        digests = {key.digest() for key in variants}
        assert base.digest() not in digests
        assert len(digests) == len(variants)
        import json

        from repro.workloads.trace_cache import TRACE_SCHEMA_VERSION

        assert json.loads(base.canonical())["schema"] == TRACE_SCHEMA_VERSION
