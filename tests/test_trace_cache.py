"""Tests for the binary trace format and the shared on-disk trace cache."""

import json

import pytest

from repro.errors import TraceError
from repro.params.system import scaled_system
from repro.sim.runner import TraceFactory
from repro.sim.trace import (
    Trace,
    load_trace,
    load_trace_npz,
    save_trace,
    save_trace_npz,
)
from repro.workloads.trace_cache import (
    TraceCache,
    TraceKey,
    default_trace_root,
    shared_trace_cache,
    trace_cache_enabled,
)


def small_trace(name="t", n=200):
    addrs = [(i * 293) % 4096 * 64 for i in range(n)]
    writes = bytearray(1 if i % 5 == 0 else 0 for i in range(n))
    return Trace(name, addrs, writes, instructions_per_access=37.5)


def assert_traces_equal(a, b):
    assert a.name == b.name
    assert a.addrs == b.addrs
    assert bytes(a.writes) == bytes(b.writes)
    assert a.instructions_per_access == b.instructions_per_access


class TestNpzFormat:
    def test_roundtrip(self, tmp_path):
        trace = small_trace("npz roundtrip")
        path = str(tmp_path / "t.npz")
        save_trace_npz(trace, path)
        assert_traces_equal(load_trace_npz(path), trace)

    def test_text_and_npz_agree(self, tmp_path):
        """The two persistence formats reload to the same trace."""
        trace = small_trace("cross-format")
        text_path = str(tmp_path / "t.trace")
        npz_path = str(tmp_path / "t.npz")
        save_trace(trace, text_path)
        save_trace_npz(trace, npz_path)
        assert_traces_equal(load_trace(text_path), load_trace_npz(npz_path))

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace_npz(str(tmp_path / "absent.npz"))

    def test_garbage_file_raises_trace_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(TraceError):
            load_trace_npz(str(path))

    def test_oversized_address_rejected(self, tmp_path):
        trace = Trace("big", [1 << 63], bytearray(1), 10.0)
        with pytest.raises(TraceError, match="not npz-serializable"):
            save_trace_npz(trace, str(tmp_path / "big.npz"))


class TestTextFormatTruncation:
    """Truncated metadata lines must raise TraceError, not IndexError."""

    def _load(self, tmp_path, body):
        path = tmp_path / "t.trace"
        path.write_text("# repro-trace-v1\n" + body)
        return load_trace(str(path))

    def test_truncated_name_line(self, tmp_path):
        with pytest.raises(TraceError, match="truncated name"):
            self._load(tmp_path, "name\nR 40\n")

    def test_truncated_ipa_line(self, tmp_path):
        with pytest.raises(TraceError, match="truncated ipa"):
            self._load(tmp_path, "ipa\nR 40\n")

    def test_non_numeric_ipa(self, tmp_path):
        with pytest.raises(TraceError, match="bad ipa"):
            self._load(tmp_path, "ipa forty\nR 40\n")


class TestWriteCount:
    def test_counts_and_caches(self):
        trace = small_trace()
        expected = sum(1 for w in trace.writes if w)
        assert trace.write_count == expected
        assert trace.read_count == len(trace) - expected
        # Cached: the second read serves from the memo field.
        assert trace._write_count == expected
        assert trace.write_count == expected

    def test_list_backed_flags(self):
        trace = Trace("l", [0, 64, 128], [0, 1, 1], 10.0)
        assert trace.write_count == 2


class TestTraceCache:
    def key(self, workload="soplex", **overrides):
        base = dict(
            workload=workload,
            capacity_bytes=256 * 1024,
            num_accesses=500,
            seed=3,
            footprint_scale=1.0 / 2048.0,
        )
        base.update(overrides)
        return TraceKey(**base)

    def test_put_get_roundtrip(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = self.key()
        assert cache.get(key) is None
        trace = small_trace("soplex")
        cache.put(key, trace)
        assert key in cache
        assert len(cache) == 1
        assert_traces_equal(cache.get(key), trace)

    def test_meta_rides_in_the_sidecar(self, tmp_path):
        cache = TraceCache(tmp_path)
        key, bare = self.key(), self.key(seed=4)
        cache.put(key, small_trace(), meta={"hits": [3, 4]})
        cache.put(bare, small_trace())
        trace, meta = cache.get_with_meta(key, lambda meta: meta)
        assert meta == {"hits": [3, 4]}
        assert_traces_equal(trace, small_trace())
        assert_traces_equal(cache.get(key), small_trace())  # meta ignored
        assert cache.get_with_meta(bare, lambda meta: meta)[1] is None
        record = json.loads(cache._key_path(cache.path_for(bare)).read_text())
        assert "meta" not in record  # plain trace sidecars are unchanged

    def test_rejected_meta_is_quarantined(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = self.key()
        cache.put(key, small_trace(), meta=[1])

        def reject(meta):
            raise ValueError(f"not a dict: {meta!r}")

        with pytest.warns(RuntimeWarning, match="bad meta"):
            assert cache.get_with_meta(key, reject) is None
        assert len(cache) == 0
        assert cache.stats.quarantined == 1

    def test_distinct_keys_distinct_entries(self, tmp_path):
        cache = TraceCache(tmp_path)
        for key in (self.key(), self.key(seed=4), self.key(num_accesses=501),
                    self.key(workload="mix1")):
            cache.put(key, small_trace())
        assert len(cache) == 4

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """A sidecar whose key disagrees (digest collision, hand edit)
        degrades to a miss and is discarded."""
        cache = TraceCache(tmp_path)
        key = self.key()
        cache.put(key, small_trace())
        sidecar = cache._key_path(cache.path_for(key))
        sidecar.write_text(json.dumps({"key": "something else"}))
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_corrupt_payload_is_discarded(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = self.key()
        cache.put(key, small_trace())
        cache.path_for(key).write_bytes(b"garbage")
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_corrupt_key_sidecar_quarantined(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = self.key()
        cache.put(key, small_trace())
        path = cache.path_for(key)
        sidecar = cache._key_path(path)
        sidecar.write_text("{ not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        assert cache.stats.quarantined == 1
        qdir = tmp_path / "quarantine"
        # Entry and sidecar are moved aside (inspectable), not deleted.
        assert (qdir / path.name).exists()
        assert (qdir / sidecar.name).exists()
        assert (qdir / f"{path.name}.why").exists()
        assert len(cache) == 0
        # The slot is usable again after quarantine.
        trace = small_trace()
        cache.put(key, trace)
        assert_traces_equal(cache.get(key), trace)

    def test_truncated_key_sidecar_quarantined(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = self.key()
        cache.put(key, small_trace())
        sidecar = cache._key_path(cache.path_for(key))
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        assert cache.stats.quarantined == 1

    def test_sidecar_without_payload_quarantined(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = self.key()
        cache.put(key, small_trace())
        cache.path_for(key).unlink()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        assert cache.stats.quarantined == 1

    def test_get_meta_reads_the_sidecar_alone(self, tmp_path, monkeypatch):
        import repro.workloads.trace_cache as trace_cache_module

        cache = TraceCache(tmp_path)
        key = self.key()
        assert cache.get_meta(key, lambda meta: meta) is None  # cold miss
        cache.put(key, small_trace(), meta={"hits": [3, 4]})
        opened = []
        load = trace_cache_module.load_trace_npz
        monkeypatch.setattr(
            trace_cache_module, "load_trace_npz",
            lambda *args, **kwargs: opened.append(args) or load(
                *args, **kwargs),
        )
        assert cache.get_meta(key, lambda meta: meta) == {"hits": [3, 4]}
        assert opened == []
        # The payload is never stat'ed or opened: a missing npz still
        # serves the meta (a full get() would quarantine the entry).
        cache.path_for(key).unlink()
        assert cache.get_meta(key, lambda meta: meta) == {"hits": [3, 4]}
        assert cache.stats.quarantined == 0
        assert cache.stats.hits == 2

    def test_get_meta_quarantines_a_mismatched_key(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = self.key()
        cache.put(key, small_trace(), meta=[1])
        sidecar = cache._key_path(cache.path_for(key))
        record = json.loads(sidecar.read_text())
        record["key"] = self.key(seed=4).canonical()
        sidecar.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="does not match"):
            assert cache.get_meta(key, lambda meta: meta) is None
        assert cache.stats.quarantined == 1
        assert len(cache) == 0

    def test_get_meta_quarantines_rejected_meta(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = self.key()
        cache.put(key, small_trace(), meta=[1])

        def reject(meta):
            raise ValueError(f"not a dict: {meta!r}")

        with pytest.warns(RuntimeWarning, match="bad meta"):
            assert cache.get_meta(key, reject) is None
        assert cache.stats.quarantined == 1
        assert len(cache) == 0
        assert not cache._key_path(cache.path_for(key)).exists()

    def test_digested_floats_round_trip_and_reject_edits(self):
        from repro.workloads.trace_cache import (
            digested_floats,
            parse_digested_floats,
        )

        meta = digested_floats("rates", [0.25, 1.0])
        assert parse_digested_floats("rates", 2, meta) == [0.25, 1.0]
        for bad in (
            {**meta, "rates": [0.5, 1.0]},  # edited value, stale digest
            {**meta, "rates": [0.25]},
            {**meta, "rates": [0.25, 1]},  # ints are not rates
            {**meta, "rates": [0.25, 1.5]},
            {"rates": meta["rates"]},
            {**meta, "extra": 1},
            [0.25, 1.0],
        ):
            with pytest.raises(ValueError):
                parse_digested_floats("rates", 2, bad)

    def test_digested_floats_several_lists_share_one_digest(self):
        from repro.workloads.trace_cache import (
            digested_floats,
            parse_digested_floats,
        )

        meta = digested_floats("sim", [0.25, 0.5], ana=[0.75, 1.0])
        assert parse_digested_floats("sim", 2, meta, "ana") == \
            [0.25, 0.5, 0.75, 1.0]
        # One list alone digests as the single-list form does.
        assert digested_floats("sim", [0.25, 0.5])["sha256"] != meta["sha256"]
        for bad in (
            {**meta, "ana": [0.75, 0.5]},  # edited value, stale digest
            {**meta, "sim": meta["ana"], "ana": meta["sim"]},  # swapped
            {**meta, "ana": [0.75]},
            digested_floats("sim", [0.25, 0.5]),  # "ana" missing
        ):
            with pytest.raises(ValueError):
                parse_digested_floats("sim", 2, bad, "ana")

    def test_unwritable_root_warns_once_and_degrades(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the root should be")
        cache = TraceCache(blocker / "sub")
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put(self.key(), small_trace())
        # Second put is silent (warn-once) and a lookup still misses.
        cache.put(self.key(), small_trace())
        assert cache.get(self.key()) is None

    def test_mix_key_embeds_member_specs(self):
        canonical = self.key(workload="mix1").canonical()
        payload = json.loads(canonical)
        members = payload["generator"]["members"]
        assert [m["name"] for m in members] == ["soplex", "mcf", "libq", "sphinx"]

    def test_toggle_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert not trace_cache_enabled()
        assert shared_trace_cache() is None

    def test_default_root_prefers_trace_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "t"))
        assert default_trace_root() == tmp_path / "t"
        monkeypatch.delenv("REPRO_TRACE_DIR")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "r"))
        assert default_trace_root() == tmp_path / "r" / "traces"


class TestTraceFactoryIntegration:
    def test_factory_shares_traces_across_instances(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "shared"))
        config = scaled_system(ways=1, scale=1.0 / 2048.0)
        first = TraceFactory(config, 1000, seed=9).trace_for("soplex")
        assert len(TraceCache(tmp_path / "shared")) == 1
        second = TraceFactory(config, 1000, seed=9).trace_for("soplex")
        assert_traces_equal(first, second)

    def test_factory_mix_traces_cached(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "shared"))
        config = scaled_system(ways=2, scale=1.0 / 2048.0)
        first = TraceFactory(config, 1000, seed=9).trace_for("mix1")
        second = TraceFactory(config, 1000, seed=9).trace_for("mix1")
        assert_traces_equal(first, second)

    def test_disabled_cache_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "off"))
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        config = scaled_system(ways=1, scale=1.0 / 2048.0)
        TraceFactory(config, 1000, seed=9).trace_for("soplex")
        assert not (tmp_path / "off").exists()
