"""Tests for the workload catalog and synthetic generators."""

import hashlib

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.params.system import PAGE_SIZE
from repro.workloads.cyclic import cyclic_trace
from repro.workloads.mixes import MIX_RECIPES, build_mix_trace
from repro.workloads.spec import (
    EXTENDED_SUITE,
    MAIN_SUITE,
    WorkloadSpec,
    extended_suite,
    get_workload,
    is_mix,
    main_suite,
    rate_mode_specs,
)
from repro.params.system import scaled_system
from repro.workloads.synthetic import SyntheticWorkload

CAPACITY = 4 * 1024 * 1024  # small cache capacity for generator tests


class TestCatalog:
    def test_suite_sizes(self):
        assert len(MAIN_SUITE) == 21  # 17 rate-mode + 4 mixes
        assert len(EXTENDED_SUITE) == 46  # 29 SPEC + 10 mixes + 6 GAP + 1 HPC

    def test_suite_composition(self):
        specs = [get_workload(w) for w in extended_suite() if not is_mix(w)]
        by_suite = {}
        for spec in specs:
            by_suite[spec.suite] = by_suite.get(spec.suite, 0) + 1
        assert by_suite["SPEC"] == 29
        assert by_suite["GAP"] == 6
        assert by_suite["HPC"] == 1

    def test_rate_mode_table(self):
        specs = rate_mode_specs()
        assert len(specs) == 17
        names = [s.name for s in specs]
        for expected in ("soplex", "libq", "mcf", "nekbone", "pr_twi"):
            assert expected in names

    def test_lookup_and_errors(self):
        assert get_workload("soplex").potential == 2.43
        with pytest.raises(WorkloadError):
            get_workload("not_a_workload")
        with pytest.raises(WorkloadError):
            get_workload("mix1")  # mixes built separately

    def test_main_suite_returns_copy(self):
        suite = main_suite()
        suite.clear()
        assert len(main_suite()) == 21

    def test_scaling(self):
        spec = get_workload("soplex")
        scaled = spec.scaled(1.0 / 128.0)
        assert scaled.footprint_bytes == pytest.approx(
            spec.footprint_bytes / 128, rel=0.01
        )
        assert scaled.mpki == spec.mpki

    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec("x", "SPEC", mpki=0, footprint_bytes=1, potential=1)
        with pytest.raises(WorkloadError):
            WorkloadSpec("x", "SPEC", mpki=1, footprint_bytes=1, potential=1,
                         conflict_degree=1)


class TestSyntheticGenerator:
    def _gen(self, name="libq", seed=7, **overrides):
        import dataclasses

        spec = get_workload(name).scaled(1.0 / 512.0)
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        return SyntheticWorkload(spec, CAPACITY, seed=seed)

    def test_deterministic(self):
        a = self._gen().generate(5000)
        b = self._gen().generate(5000)
        assert a.addrs == b.addrs
        assert bytes(a.writes) == bytes(b.writes)

    def test_seeds_differ(self):
        a = self._gen(seed=1).generate(5000)
        b = self._gen(seed=2).generate(5000)
        assert a.addrs != b.addrs

    def test_write_fraction_near_spec(self):
        trace = self._gen().generate(30_000)
        spec = get_workload("libq")
        observed = trace.write_count / (len(trace) - trace.write_count)
        assert abs(observed - spec.write_frac) < 0.05

    def test_writebacks_target_recent_lines(self):
        trace = self._gen().generate(5000)
        reads = set()
        for addr, is_write in zip(trace.addrs, trace.writes):
            if is_write:
                assert addr // 64 in reads
            else:
                reads.add(addr // 64)

    def test_conflict_groups_alias_in_cache(self):
        gen = self._gen("soplex")
        trace = gen.generate(30_000)
        base = gen._conflict_base
        conflict_pages = {a // PAGE_SIZE for a in trace.addrs if a >= base}
        assert conflict_pages  # soplex has conflict traffic
        # Pages of one group differ by exactly the capacity.
        groups = {}
        for page in conflict_pages:
            groups.setdefault((page * PAGE_SIZE) % CAPACITY, []).append(page)
        assert any(len(members) >= 2 for members in groups.values())

    def test_spatial_runs_present(self):
        trace = self._gen("libq").generate(10_000)
        sequential = sum(
            1
            for i in range(1, len(trace.addrs))
            if trace.addrs[i] == trace.addrs[i - 1] + 64
        )
        assert sequential / len(trace) > 0.3  # libq streams long runs

    def test_sparse_workload_short_runs(self):
        trace = self._gen("mcf").generate(10_000)
        sequential = sum(
            1
            for i in range(1, len(trace.addrs))
            if trace.addrs[i] == trace.addrs[i - 1] + 64
        )
        assert sequential / len(trace) < 0.3

    def test_addr_base_offset(self):
        import dataclasses

        spec = get_workload("libq").scaled(1.0 / 512.0)
        gen = SyntheticWorkload(spec, CAPACITY, seed=7, addr_base=CAPACITY * 16)
        trace = gen.generate(1000)
        assert all(a >= CAPACITY * 16 for a in trace.addrs)

    def test_addr_base_must_preserve_aliasing(self):
        spec = get_workload("libq").scaled(1.0 / 512.0)
        with pytest.raises(WorkloadError):
            SyntheticWorkload(spec, CAPACITY, addr_base=CAPACITY + 64)

    def test_rejects_bad_length(self):
        with pytest.raises(WorkloadError):
            self._gen().generate(0)


class TestMixes:
    def test_recipes_have_four_members(self):
        assert len(MIX_RECIPES) == 10
        for members in MIX_RECIPES.values():
            assert len(members) == 4

    def test_mix_trace_interleaves_members(self):
        trace = build_mix_trace("mix1", CAPACITY, 8000, seed=3)
        spans = {addr // (CAPACITY * (1 << 16)) for addr in trace.addrs}
        assert len(spans) == 4  # four disjoint member regions

    def test_unknown_mix_rejected(self):
        with pytest.raises(WorkloadError):
            build_mix_trace("mix99", CAPACITY, 1000)

    def test_mix_deterministic(self):
        a = build_mix_trace("mix2", CAPACITY, 4000, seed=5)
        b = build_mix_trace("mix2", CAPACITY, 4000, seed=5)
        assert a.addrs == b.addrs


def _column_digest(trace) -> str:
    h = hashlib.sha256()
    h.update(trace.numpy_addrs().astype("<i8", copy=False).tobytes())
    h.update(trace.numpy_writes().tobytes())
    return h.hexdigest()


def _assert_array_backed(trace):
    assert trace._addrs_list is None and trace._writes_list is None
    assert trace._np_addrs.dtype == np.int64
    assert trace._np_writes.dtype == np.uint8


class TestTraceStorage:
    """Generated and mix traces are array-backed, and the column bytes
    are pinned to the values the list-built generator produced."""

    CAPACITY = scaled_system(ways=2, scale=1 / 64).dram_cache.capacity_bytes

    #: (length, sha256 of the int64 address bytes then the flag bytes).
    GOLDEN = {
        "soplex": (4004, "263269802d6bc36954c23b51a9d0c4d684cd3232771c51510dc87325b112da71"),
        "mcf": (4000, "251f9c1221a473598327203b3e6cf8e910848200954b95af3a27b26590cb7fd1"),
        "mix1": (4000, "e5ded285d0e94ec0b825f4a967b192102502757e729052fab196814d34433785"),
    }

    def _trace(self, name):
        if name.startswith("mix"):
            return build_mix_trace(name, self.CAPACITY, 4000, seed=7,
                                   scale=1 / 64)
        return SyntheticWorkload(get_workload(name).scaled(1 / 64),
                                 self.CAPACITY, seed=7).generate(4000)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_columns_match_golden(self, name):
        trace = self._trace(name)
        _assert_array_backed(trace)
        assert (len(trace), _column_digest(trace)) == self.GOLDEN[name]

    @pytest.mark.parametrize("name", ["soplex", "mix1"])
    def test_derived_counts_keep_columns_as_arrays(self, name):
        trace = self._trace(name)
        lines = trace.numpy_addrs() // 64
        assert trace.write_count == int((trace.numpy_writes() != 0).sum())
        assert trace.footprint_lines() == len(set(lines.tolist()))
        _assert_array_backed(trace)

    @pytest.mark.parametrize("engine", ["loop", "stream"])
    def test_scalar_drive_leaves_columns_as_arrays(self, engine):
        """A per-access engine takes per-drive lists, split columns
        included; the trace (which a trace factory may memoize) keeps
        only its numpy columns."""
        from repro.core.accord import AccordDesign
        from repro.sim.system import Simulator

        trace = self._trace("soplex")
        config = scaled_system(ways=2, scale=1 / 64)
        Simulator(config, AccordDesign(kind="accord", ways=2), seed=3).run(
            trace, warmup_fraction=0.3, engine=engine, engine_strict=True
        )
        _assert_array_backed(trace)
        assert not getattr(trace, "_split_cache", None)
        held = [getattr(trace, slot, None) for slot in type(trace).__slots__]
        assert not [value for value in held if isinstance(value, list)]

    def test_mix_tail_chunk_is_interleaved_last(self):
        """Per-member lengths that are not a multiple of the 64-record
        chunk end with each member's short tail, in member order."""
        trace = build_mix_trace("mix1", CAPACITY, 4 * 100, seed=2)
        span = CAPACITY * (1 << 16)
        members = (trace.numpy_addrs() // span).tolist()
        assert members == [0] * 64 + [1] * 64 + [2] * 64 + [3] * 64 + (
            [0] * 36 + [1] * 36 + [2] * 36 + [3] * 36
        )


class TestCyclic:
    def test_cyclic_trace_shape(self):
        trace = cyclic_trace([0, 64], iterations=5)
        assert len(trace) == 10
        assert trace.addrs == [0, 64] * 5
        assert trace.write_count == 0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            cyclic_trace([], 5)
        with pytest.raises(WorkloadError):
            cyclic_trace([0], 0)
