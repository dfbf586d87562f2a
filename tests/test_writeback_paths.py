"""Tests for the writeback edge paths: DCP bypass, desync, probe costs."""

import pytest

from repro.cache.dcp import FiniteDcpDirectory
from repro.cache.dram_cache import DramCache
from repro.cache.geometry import CacheGeometry
from repro.cache.lookup import SerialLookup
from repro.cache.replacement import RandomReplacement
from repro.core.steering import UnbiasedSteering
from repro.errors import PolicyError
from repro.utils.rng import XorShift64


def make_cache(ways=2, dcp="default", steering=None, capacity=8 * 1024):
    geometry = CacheGeometry(capacity, ways)
    return DramCache(
        geometry,
        lookup=SerialLookup(),
        steering=steering or UnbiasedSteering(geometry),
        predictor=None,
        replacement=RandomReplacement(XorShift64(3)),
        dcp=dcp,
        prefill=False,
    )


class TestDcpBypass:
    def test_bypass_charges_nvm_not_probes(self):
        cache = make_cache()
        before_reads = cache.stats.cache_read_transfers
        assert not cache.writeback(0x5000)
        stats = cache.stats
        assert stats.writeback_bypass == 1
        assert stats.nvm_writes == 1
        assert stats.writeback_probe_accesses == 0
        assert stats.cache_read_transfers == before_reads  # no probe reads
        assert stats.cache_write_transfers == 0  # nothing written to DRAM

    def test_out_of_sync_dcp_raises(self):
        cache = make_cache()
        cache.read(0x5000)
        way = cache.store.find_way(*cache.geometry.split(0x5000))
        line = cache.geometry.line_addr(0x5000)
        # Corrupt the directory: claim the line lives in the other way.
        cache.dcp.insert(line, (way + 1) % cache.geometry.ways)
        with pytest.raises(PolicyError):
            cache.writeback(0x5000)


class TestFiniteDcp:
    def test_forgotten_line_probes_then_relearns(self):
        cache = make_cache(dcp=FiniteDcpDirectory(capacity=1))
        span = cache.geometry.num_sets * cache.geometry.line_size
        cache.read(0x0)
        cache.read(span * 2)  # second line: capacity-evicts 0x0's DCP entry
        assert cache.dcp.lookup(cache.geometry.line_addr(0x0)) is None

        # First writeback: the line is resident but forgotten, so the
        # non-authoritative miss forces a probe...
        assert cache.writeback(0x0)
        probes_after_first = cache.stats.writeback_probe_accesses
        assert probes_after_first >= 1
        assert cache.stats.writeback_direct == 1

        # ...and the probe's answer is re-learned: the second writeback
        # goes straight to the way.
        assert cache.writeback(0x0)
        assert cache.stats.writeback_probe_accesses == probes_after_first
        assert cache.stats.writeback_direct == 2

    def test_absent_line_probes_all_candidates_then_bypasses(self):
        cache = make_cache(ways=4, capacity=16 * 1024, dcp=FiniteDcpDirectory())
        assert not cache.writeback(0x7000)
        stats = cache.stats
        # A non-authoritative miss cannot bypass without proof: all four
        # candidate ways are probed before the line goes to NVM.
        assert stats.writeback_probe_accesses == 4
        assert stats.cache_read_transfers == 4
        assert stats.writeback_bypass == 1
        assert stats.nvm_writes == 1


class GeneratorSteering(UnbiasedSteering):
    """Returns its candidates as a one-shot generator, as a policy
    legally may: the access path must not assume len()/index() work."""

    def candidate_ways(self, set_index, tag):
        return (way for way in range(self.ways))


class TestCandidateIterables:
    def test_probe_hit_cost_with_generator_candidates(self):
        cache = make_cache(dcp=None, steering=None)
        cache.steering = GeneratorSteering(cache.geometry)
        cache.read(0x3000)
        way = cache.store.find_way(*cache.geometry.split(0x3000))
        assert cache.writeback(0x3000)
        # Serialized probe: ways 0..way are read before the hit.
        assert cache.stats.writeback_probe_accesses == way + 1

    def test_probe_miss_cost_with_generator_candidates(self):
        cache = make_cache(ways=4, capacity=16 * 1024, dcp=None)
        cache.steering = GeneratorSteering(cache.geometry)
        assert not cache.writeback(0x3000)
        assert cache.stats.writeback_probe_accesses == 4

    def test_read_path_accepts_generator_candidates(self):
        cache = make_cache(dcp=None)
        cache.steering = GeneratorSteering(cache.geometry)
        assert not cache.read(0x3000).hit
        assert cache.read(0x3000).hit
