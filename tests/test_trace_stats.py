"""Tests for trace representation/IO and the stats registry."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TraceError
from repro.sim.stats import CacheStats
from repro.sim.trace import Trace, load_trace, save_trace, trace_from_arrays


class TestTrace:
    def test_basic_properties(self):
        trace = trace_from_arrays("t", [0, 64, 128], [0, 1, 0], 50.0)
        assert len(trace) == 3
        assert trace.write_count == 1

    def test_from_arrays_builds_numpy_columns(self):
        trace = trace_from_arrays("t", iter([0, 64, 128]), [0, 2, False], 50.0)
        assert trace._addrs_list is None and trace._writes_list is None
        assert trace.numpy_addrs().tolist() == [0, 64, 128]
        assert trace.numpy_writes().tolist() == [0, 1, 0]
        assert trace.footprint_lines() == 3
        assert trace._addrs_list is None  # no derived count built a list

    def test_iteration(self):
        trace = trace_from_arrays("t", [0, 64], [0, 1], 10.0)
        records = list(trace)
        assert records[0].addr == 0 and not records[0].is_write
        assert records[1].addr == 64 and records[1].is_write

    def test_footprint(self):
        trace = trace_from_arrays("t", [0, 1, 63, 64, 128], [0] * 5, 10.0)
        assert trace.footprint_lines() == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            Trace("t", [0, 64], bytearray([0]), 10.0)

    def test_bad_ipa_rejected(self):
        with pytest.raises(TraceError):
            Trace("t", [0], bytearray([0]), 0.0)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = trace_from_arrays("roundtrip test", [0, 64, 4096], [0, 1, 0], 37.5)
        path = str(tmp_path / "t.trace")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.addrs == trace.addrs
        assert list(loaded.writes) == list(trace.writes)
        assert loaded.instructions_per_access == trace.instructions_per_access

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n")
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad2.trace"
        path.write_text("# repro-trace-v1\nR 10 20\n")
        with pytest.raises(TraceError):
            load_trace(str(path))

    @given(addrs=st.lists(st.integers(min_value=0, max_value=2**48), min_size=1,
                          max_size=50),
           seed=st.integers(min_value=0, max_value=100))
    def test_property_roundtrip(self, addrs, seed):
        import os
        import tempfile

        writes = [(a + seed) % 2 for a in addrs]
        trace = trace_from_arrays("prop", addrs, writes, 12.5)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.trace")
            save_trace(trace, path)
            loaded = load_trace(path)
        assert loaded.addrs == trace.addrs
        assert list(loaded.writes) == list(trace.writes)


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_prediction_accuracy(self):
        stats = CacheStats(predicted_hits=10, correct_predictions=9)
        assert stats.prediction_accuracy == 0.9
        assert CacheStats().prediction_accuracy == 0.0

    def test_total_transfers(self):
        stats = CacheStats(
            cache_read_transfers=5,
            cache_write_transfers=2,
            replacement_update_transfers=1,
            swap_transfers=2,
        )
        assert stats.total_cache_transfers == 10

