"""The access path: executes the DRAM cache's lookup/fill/writeback flow.

Decomposed out of :class:`~repro.cache.dram_cache.DramCache` so that the
*flow* (which policies are consulted, in what order, with what cost
identities) lives in one place and is observable. The path emits typed
events (:mod:`repro.cache.events`) to registered observers; the cache's
own :class:`~repro.sim.stats.CacheStats` accounting is the inlined
counters-only fast path — when no observer is registered, no event
object is ever constructed, so the hot loop runs at seed speed. The
inlined accounting is, line for line, the
:class:`~repro.cache.events.StatsObserver` specification; the
equivalence tests assert the two bit-identical for every design.

The path reads its components (store, lookup flow, steering, predictor,
replacement, DCP, stats) from the owning cache *at call time*, because
design factories and the simulator legitimately swap them after
construction (``cache.predictor = PerfectPredictor(...)``,
``cache.stats = CacheStats()``). The cache is passed into every call
rather than held: a path holding its cache would close a reference
cycle (``cache.path.cache is cache``), and every finished run's cache
would then wait for the cyclic garbage collector instead of being
freed when its last reference goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.cache.events import (
    AccessObserver,
    EvictEvent,
    FillEvent,
    LookupEvent,
    WritebackEvent,
)
from repro.cache.lookup import LookupResult
from repro.errors import PolicyError

if TYPE_CHECKING:  # owning-cache hint only; no runtime import cycle
    from repro.cache.dram_cache import DramCache


@dataclass
class AccessOutcome:
    """What one demand access did (returned to the caller/simulator)."""

    __slots__ = (
        "hit", "way", "serialized_accesses", "nvm_read",
        "prediction_used", "prediction_correct",
    )

    hit: bool
    way: Optional[int]
    serialized_accesses: int
    nvm_read: bool
    prediction_used: bool
    prediction_correct: bool


class AccessPath:
    """Executes accesses for one :class:`DramCache`, emitting events.

    Holds only the observer registry; each access names the cache it
    runs on (the owning cache passes itself).
    """

    def __init__(self):
        self.observers: List[AccessObserver] = []

    # -- observer registry --------------------------------------------------

    def add_observer(self, observer: AccessObserver) -> None:
        """Register an observer; events arrive in registration order."""
        self.observers.append(observer)

    def remove_observer(self, observer: AccessObserver) -> None:
        """Unregister an observer (no-op if it was never registered)."""
        try:
            self.observers.remove(observer)
        except ValueError:
            pass

    # -- demand reads -------------------------------------------------------

    def read(self, cache: "DramCache", addr: int) -> AccessOutcome:
        """Service one demand read; fills the line on a miss."""
        set_index, tag = cache.geometry.split(addr)
        return self.read_split(cache, set_index, tag, addr)

    def read_split(
        self, cache: "DramCache", set_index: int, tag: int, addr: int
    ) -> AccessOutcome:
        """:meth:`read` with the (set, tag) split precomputed.

        The ``stream`` engine splits the whole trace vectorized once per
        geometry (:meth:`~repro.sim.trace.Trace.split_columns`) and
        drives this method directly, so ``geometry.split`` never runs
        per access.
        The inlined counter updates below are, line for line, the
        :class:`~repro.cache.events.StatsObserver` specification.
        """
        stats = cache.stats
        stats.demand_reads += 1
        candidates = cache.steering.candidate_ways(set_index, tag)
        if type(candidates) not in (tuple, list):
            # A policy may hand back any iterable (even one-shot);
            # materialize once so the lookup and the fill's
            # containment check both see the same sequence.
            candidates = tuple(candidates)
        result = cache.lookup.lookup(
            set_index, tag, addr, cache.store, candidates, cache.predictor
        )
        stats.first_probes += 1
        stats.cache_read_transfers += result.transfers
        if result.hit:
            way = result.way
            predicted = result.predicted_way
            stats.hit_extra_probes += result.serialized_accesses - 1
            stats.hits += 1
            prediction_correct = False
            if predicted is not None:
                stats.predicted_hits += 1
                prediction_correct = way == predicted
                if prediction_correct:
                    stats.correct_predictions += 1
            cache.replacement.on_hit(set_index, way)
            update_transfers = cache.replacement.update_transfers_on_hit
            stats.replacement_update_transfers += update_transfers
            if cache.predictor is not None:
                cache.predictor.on_access(set_index, tag, addr, way, True)
            if self.observers:
                self._emit_lookup(addr, set_index, tag, result, update_transfers)
            return AccessOutcome(
                hit=True,
                way=way,
                serialized_accesses=result.serialized_accesses,
                nvm_read=False,
                prediction_used=predicted is not None,
                prediction_correct=prediction_correct,
            )
        stats.miss_extra_probes += result.serialized_accesses - 1
        if self.observers:
            self._emit_lookup(addr, set_index, tag, result, 0)
        way = self._fill(
            cache, set_index, tag, addr, dirty=False, candidates=candidates
        )
        return AccessOutcome(
            hit=False,
            way=way,
            serialized_accesses=result.serialized_accesses,
            nvm_read=True,
            prediction_used=result.predicted_way is not None,
            prediction_correct=False,
        )

    # -- LLC writebacks -----------------------------------------------------

    def writeback(self, cache: "DramCache", addr: int) -> bool:
        """Absorb a dirty writeback from the LLC.

        Returns True if the line was written into the cache, False if it
        bypassed to main memory.
        """
        set_index, tag = cache.geometry.split(addr)
        return self.writeback_split(cache, set_index, tag, addr)

    def writeback_split(
        self, cache: "DramCache", set_index: int, tag: int, addr: int
    ) -> bool:
        """:meth:`writeback` with the (set, tag) split precomputed."""
        stats = cache.stats
        stats.writebacks_in += 1
        line = addr >> cache.geometry.offset_bits
        dcp = cache.dcp
        way: Optional[int] = None
        probes = 0
        dcp_hit = False
        if dcp is not None:
            way = dcp.lookup(line)
            dcp_hit = way is not None
            if way is None and dcp.authoritative:
                # An exact directory's miss proves absence: bypass.
                stats.writeback_bypass += 1
                stats.nvm_writes += 1
                if self.observers:
                    self._emit_writeback(
                        addr, set_index, tag, absorbed=False, way=None,
                        probes=0, dcp_hit=False, bypassed_by_dcp=True,
                    )
                return False
            if way is not None and cache.store.tag_at(set_index, way) != tag:
                raise PolicyError("DCP directory out of sync with the tag store")
        if way is None:
            # No way information (no DCP, or a finite DCP forgot the
            # line): the writeback must probe the candidate ways. The
            # steering policy may hand back any iterable; materialize it
            # once so probe counting (len / index) is well-defined.
            candidates = cache.steering.candidate_ways(set_index, tag)
            if type(candidates) not in (tuple, list):
                candidates = tuple(candidates)
            way = cache.store.find_way_among(set_index, tag, candidates)
            probes = len(candidates) if way is None else candidates.index(way) + 1
            stats.writeback_probe_accesses += probes
            stats.cache_read_transfers += probes
            if way is None:
                stats.writeback_bypass += 1
                stats.nvm_writes += 1
                if self.observers:
                    self._emit_writeback(
                        addr, set_index, tag, absorbed=False, way=None,
                        probes=probes, dcp_hit=False, bypassed_by_dcp=False,
                    )
                return False
            if dcp is not None:
                dcp.insert(line, way)  # re-learn the way
        cache.store.set_dirty(set_index, way, True)
        stats.writeback_direct += 1
        stats.cache_write_transfers += 1
        cache.replacement.on_hit(set_index, way)
        if self.observers:
            self._emit_writeback(
                addr, set_index, tag, absorbed=True, way=way,
                probes=probes, dcp_hit=dcp_hit, bypassed_by_dcp=False,
            )
        return True

    # -- internals ----------------------------------------------------------

    def _fill(
        self,
        cache: "DramCache",
        set_index: int,
        tag: int,
        addr: int,
        dirty: bool,
        candidates: Optional[Sequence[int]] = None,
    ) -> int:
        """Fetch the line from NVM and install it.

        ``candidates`` is the steering policy's candidate set for this
        (set, tag), already computed by the lookup that missed; passing
        it avoids recomputing what :meth:`read_split` holds. The
        install-way containment check validates against it directly.
        """
        stats = cache.stats
        stats.misses += 1
        stats.nvm_reads += 1
        if cache.predictor is not None:
            cache.predictor.on_access(set_index, tag, addr, None, False)
        way = cache.steering.choose_install_way(
            set_index, tag, addr, cache.store, cache.replacement
        )
        if candidates is None:
            candidates = cache.steering.candidate_ways(set_index, tag)
        if way not in candidates:
            raise PolicyError(
                f"steering installed into way {way}, outside its candidate set"
            )
        self._evict(cache, set_index, way)
        cache.store.install(set_index, way, tag, dirty=dirty)
        stats.installs += 1
        stats.cache_write_transfers += 1
        cache.replacement.on_install(set_index, way)
        cache.steering.on_install(set_index, tag, addr, way)
        if cache.predictor is not None:
            cache.predictor.on_install(set_index, tag, addr, way)
        if cache.dcp is not None:
            cache.dcp.insert(addr >> cache.geometry.offset_bits, way)
        if self.observers:
            event = FillEvent(
                addr=addr, set_index=set_index, tag=tag, way=way, dirty=dirty
            )
            for observer in self.observers:
                observer.on_fill(event)
        return way

    def _evict(self, cache: "DramCache", set_index: int, way: int) -> None:
        victim_tag, dirty = cache.store.evict_slot(set_index, way)
        if victim_tag == -1:  # invalid slot: nothing to displace
            return
        stats = cache.stats
        stats.evictions += 1
        if dirty:
            stats.dirty_evictions += 1
            stats.nvm_writes += 1
        if cache.predictor is not None:
            cache.predictor.on_evict(set_index, victim_tag, way)
        if cache.dcp is not None:
            # line_addr(addr_of(set, tag)) without the byte-addr detour.
            victim_line = (victim_tag << cache.geometry.index_bits) | set_index
            cache.dcp.remove(victim_line)
        if self.observers:
            event = EvictEvent(
                set_index=set_index, way=way, victim_tag=victim_tag, dirty=dirty
            )
            for observer in self.observers:
                observer.on_evict(event)

    # -- event emission -----------------------------------------------------

    def _emit_lookup(
        self,
        addr: int,
        set_index: int,
        tag: int,
        result: LookupResult,
        update_transfers: int,
    ) -> None:
        event = LookupEvent(
            addr=addr,
            set_index=set_index,
            tag=tag,
            hit=result.hit,
            way=result.way,
            serialized_accesses=result.serialized_accesses,
            transfers=result.transfers,
            predicted_way=result.predicted_way,
            prediction_correct=result.prediction_correct,
            replacement_update_transfers=update_transfers,
        )
        for observer in self.observers:
            observer.on_lookup(event)

    def _emit_writeback(
        self,
        addr: int,
        set_index: int,
        tag: int,
        absorbed: bool,
        way: Optional[int],
        probes: int,
        dcp_hit: bool,
        bypassed_by_dcp: bool,
    ) -> None:
        event = WritebackEvent(
            addr=addr,
            set_index=set_index,
            tag=tag,
            absorbed=absorbed,
            way=way,
            probes=probes,
            dcp_hit=dcp_hit,
            bypassed_by_dcp=bypassed_by_dcp,
        )
        for observer in self.observers:
            observer.on_writeback(event)
