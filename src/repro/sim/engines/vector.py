"""The vector engine: whole-trace simulation as numpy array recurrences.

The functional model's state is strictly set-local for the designs that
declare the ``vectorizable`` capability: every quantity consulted on an
access to set *s* — resident tags, dirty bits, MRU/partial-tag
predictor state, per-set counter-based random streams — depends only on
the *prior accesses to s*. That makes the trace a bundle of independent
per-set recurrences, which this engine evaluates breadth-first:

1. **Plan** (cached per trace × geometry): stable-sort accesses by set,
   compute each access's *rank* (how many earlier accesses touch the
   same set), and group accesses by rank. Within one rank group every
   access touches a distinct set.
2. **Precompute** per-access constants in single vectorized passes:
   tag hashes and preferred ways, SWS candidate matrices, partial-tag
   hashes, per-set RNG stream seeds (:func:`repro.utils.rng.mix64_array`
   and friends are bit-identical array forms of the scalar streams).
3. **Step** over ranks: rank *k* processes the k-th access of every set
   simultaneously as a handful of gather/compare/scatter array ops —
   lookup scan over the candidate ways, flow costs, install-way draws,
   evict/install state updates, writeback absorption. Because the sets
   in one step are distinct, all scatters are conflict-free.
4. **Reduce**: the per-access outcome arrays (in original trace order)
   are sliced into the measurement window and epoch segments to produce
   :class:`~repro.sim.stats.CacheStats` and
   :class:`~repro.sim.phases.PhaseSeries` bit-identical to the
   per-access reference loop (asserted by ``tests/test_engines.py``).

The engine assumes a *freshly built* cache (junk-prefilled dense tag
store, empty DCP, zeroed predictor state): it replays the run against
its own state arrays initialized to those build-time defaults, and
never reads or writes the cache's actual store.
:meth:`repro.sim.system.Simulator.run` upholds the contract by
rebuilding the cache before a repeat run. ``supports`` declines
anything else: non-dense or unprefilled stores, registered observers,
policy stacks outside the exact set of vectorizable types (subclasses
do not inherit eligibility, even if they inherit the capability flag).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.dcp import DcpDirectory
from repro.cache.lookup import ParallelLookup, SerialLookup, WayPredictedLookup
from repro.cache.replacement import RandomReplacement
from repro.cache.storage import JUNK_TAG
from repro.core.prediction import (
    MruPredictor,
    PartialTagPredictor,
    PerfectPredictor,
    RandomPredictor,
    StaticPreferredPredictor,
)
from repro.core.pws import ProbabilisticWaySteering
from repro.core.steering import (
    DirectMappedSteering,
    UnbiasedSteering,
    _HASH_MULT,
    ways_bits,
)
from repro.core.sws import SkewedWaySteering, _TAG_SCAN_GROUPS
from repro.errors import SimulationError
from repro.sim.engines.base import Segment, has_fresh_dense_store
from repro.sim.phases import PhaseSample, PhaseSeries
from repro.sim.stats import CacheStats
from repro.utils.bitops import mask
from repro.utils.rng import mix64_array, set_stream_seeds

_U64 = np.uint64


class _Plan:
    """Classification of one cache into kernel flavors + RNG bases."""

    __slots__ = (
        "flow", "steer", "pred", "dcp_exact", "ways", "num_sets",
        "hashes", "pip", "ptag_bits", "ptag_mask",
        "repl_base", "steer_base", "pred_base",
    )


def _build_plan(cache) -> Optional[_Plan]:
    """Classify ``cache`` for the kernel; None when it cannot run exactly.

    Dispatch is on *exact* types: a subclass may override any method,
    so inheriting a vectorizable policy (or its capability flag) does
    not make the subclass's behavior one the kernel reproduces.
    """
    path = getattr(cache, "path", None)
    if path is None or path.observers:
        return None
    if not has_fresh_dense_store(cache):
        return None  # fresh-cache contract: junk-prefilled dense store
    geometry = cache.geometry
    plan = _Plan()
    plan.ways = geometry.ways
    plan.num_sets = geometry.num_sets

    lookup_type = type(cache.lookup)
    if lookup_type is ParallelLookup:
        plan.flow = "parallel"
    elif lookup_type is SerialLookup:
        plan.flow = "serial"
    elif lookup_type is WayPredictedLookup:
        plan.flow = "predicted"
    else:
        from repro.core.accord import _IdealizedLookup

        if lookup_type is not _IdealizedLookup:
            return None
        plan.flow = "ideal"

    steering = cache.steering
    steering_type = type(steering)
    plan.hashes = 0
    plan.pip = 1.0
    plan.steer_base = 0
    if steering_type is DirectMappedSteering:
        plan.steer = "direct"
    elif steering_type is UnbiasedSteering:
        plan.steer = "all"
    elif steering_type is ProbabilisticWaySteering:
        plan.steer = "pws"
        plan.pip = steering.pip
        plan.steer_base = steering._rng._base
    elif steering_type is SkewedWaySteering:
        plan.steer = "sws"
        plan.hashes = steering.hashes
        plan.pip = steering.pip
        plan.steer_base = steering._pws._rng._base
    else:
        return None

    predictor = cache.predictor
    plan.pred_base = 0
    plan.ptag_bits = 0
    plan.ptag_mask = 0
    if predictor is None:
        plan.pred = None
    else:
        predictor_type = type(predictor)
        if predictor_type is StaticPreferredPredictor:
            plan.pred = "static"
        elif predictor_type is RandomPredictor:
            plan.pred = "random"
            plan.pred_base = predictor._rng._base
        elif predictor_type is MruPredictor:
            plan.pred = "mru"
        elif predictor_type is PartialTagPredictor:
            plan.pred = "ptag"
            plan.ptag_bits = predictor.bits
            plan.ptag_mask = predictor._mask
        elif predictor_type is PerfectPredictor:
            plan.pred = "perfect"
        else:
            return None
    # A predictor attached to a non-predicted flow still learns from
    # accesses; the kernel only models predictor state under the
    # predicted flow, so decline the (never built in-repo) combination.
    if (plan.flow == "predicted") != (plan.pred is not None):
        return None

    if type(cache.replacement) is not RandomReplacement:
        return None
    plan.repl_base = cache.replacement._rng._base

    dcp = cache.dcp
    if dcp is None:
        plan.dcp_exact = False
    elif type(dcp) is DcpDirectory:
        if len(dcp) != 0:
            return None  # fresh-cache contract: nothing learned yet
        plan.dcp_exact = True
    else:
        return None
    return plan


# -- trace-order plan (sort by set, group by rank) ---------------------------

#: id(trace) -> (weakref, {(offset_bits, index_bits): (sets, tags,
#: writes, steps)}). Keyed by id with a weakref eviction callback
#: (Trace is unhashable); holds the sorted step structure that costs an
#: argsort to build and is shared by every design and repeat run over
#: the same trace.
_TRACE_PLANS: dict = {}

#: cache_token -> per-trace plan dict, for traces that carry a content
#: identity (loaded from the trace cache or attached from a shared
#: memory segment): distinct Trace objects with the same token are
#: byte-identical by construction, so their plans are interchangeable.
#: Bounded LRU — entries pin the column arrays.
_TOKEN_PLANS: "OrderedDict[str, dict]" = OrderedDict()
_TOKEN_PLAN_LIMIT = 8

#: Process-local count of sorted step-structure builds (one per trace ×
#: geometry that missed every memo). The plan-reuse tests assert a
#: same-trace sweep pays this exactly once per worker.
_PLAN_BUILDS = 0


def plan_build_count() -> int:
    """Cumulative step-plan builds in this process (monotonic)."""
    return _PLAN_BUILDS


def _plans_for(trace) -> dict:
    token = getattr(trace, "cache_token", None)
    if token is not None:
        per_trace = _TOKEN_PLANS.get(token)
        if per_trace is None:
            per_trace = {}
            _TOKEN_PLANS[token] = per_trace
            while len(_TOKEN_PLANS) > _TOKEN_PLAN_LIMIT:
                _TOKEN_PLANS.popitem(last=False)
        else:
            _TOKEN_PLANS.move_to_end(token)
        return per_trace
    tid = id(trace)
    record = _TRACE_PLANS.get(tid)
    if record is not None and record[0]() is trace:
        return record[1]
    per_trace = {}

    def _evict(_ref, tid=tid):
        _TRACE_PLANS.pop(tid, None)

    _TRACE_PLANS[tid] = (weakref.ref(trace, _evict), per_trace)
    return per_trace


def _sort_steps(
    sets: np.ndarray, writes: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Group access indices by within-set rank; split reads/writebacks.

    Returns one ``(read_rows, writeback_rows)`` pair per rank. All rows
    of one rank touch pairwise-distinct sets, so a step's state updates
    never collide; processing ranks in order preserves each set's own
    access order, which is the only order the set-local recurrences
    depend on.
    """
    n = len(sets)
    if n == 0:
        return []
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_sets[1:] != sorted_sets[:-1]
    group_starts = np.flatnonzero(new_group)
    group_lengths = np.diff(np.append(group_starts, n))
    ranks_sorted = np.arange(n, dtype=np.int64) - np.repeat(
        group_starts, group_lengths
    )
    rank = np.empty(n, dtype=np.int64)
    rank[order] = ranks_sorted
    rank_order = np.argsort(rank, kind="stable")
    counts = np.bincount(rank)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    steps = []
    for k in range(len(counts)):
        rows = rank_order[offsets[k]:offsets[k + 1]]
        is_wb = writes[rows] != 0
        steps.append((rows[~is_wb], rows[is_wb]))
    return steps


def _stream_arrays(stream, geometry):
    """(sets, tags, writes, steps) for a stream, cached per trace."""
    global _PLAN_BUILDS
    trace = getattr(stream, "trace", None)
    if trace is None:
        sets = np.asarray(stream.set_indices, dtype=np.int64)
        tags = np.asarray(stream.tags, dtype=np.int64)
        writes = np.asarray(stream.writes, dtype=np.uint8)
        _PLAN_BUILDS += 1
        return sets, tags, writes, _sort_steps(sets, writes)
    key = (geometry.offset_bits, geometry.index_bits)
    per_trace = _plans_for(trace)
    entry = per_trace.get(key)
    if entry is None:
        lines = trace.numpy_addrs() >> geometry.offset_bits
        sets = lines & ((1 << geometry.index_bits) - 1)
        tags = lines >> geometry.index_bits
        writes = trace.numpy_writes()
        _PLAN_BUILDS += 1
        entry = (sets, tags, writes, _sort_steps(sets, writes))
        per_trace[key] = entry
    return entry


# -- vectorized policy functions ---------------------------------------------


def _tag_hash_array(tags: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.steering.tag_hash` (uint64 out)."""
    t = tags.astype(_U64, copy=False)
    return ((t + _U64(1)) * _U64(_HASH_MULT)) >> _U64(32)


def _skewed_matrix(
    hashed: np.ndarray, pref: np.ndarray, ways: int, hashes: int
) -> np.ndarray:
    """Vectorized :func:`repro.core.sws.skewed_candidates` per access.

    Column 0 is the preferred way; further columns collect distinct
    alternates from successive tag-hash bit groups, then the scalar
    code's deterministic fill sequence. Row *i* equals
    ``skewed_candidates(tags[i], ways, hashes)``.
    """
    n = len(hashed)
    bits = ways_bits(ways)
    group_mask = mask(bits)
    cand_matrix = np.zeros((n, hashes), dtype=np.int64)
    cand_matrix[:, 0] = pref
    filled = np.ones(n, dtype=np.int64)
    for group in range(1, _TAG_SCAN_GROUPS + 1):
        if bool((filled >= hashes).all()):
            return cand_matrix
        cand = ((hashed >> _U64(group * bits)) & _U64(group_mask)).astype(
            np.int64
        )
        member = np.zeros(n, dtype=bool)
        for j in range(hashes):
            member |= (j < filled) & (cand_matrix[:, j] == cand)
        take = np.flatnonzero(~member & (filled < hashes))
        if len(take):
            cand_matrix[take, filled[take]] = cand[take]
            filled[take] += 1
    # Deterministic fill for degenerate tags (mirrors the scalar loop:
    # probe starts at pref ^ mask and walks (probe + 1) % ways).
    probe = (pref ^ group_mask).astype(np.int64)
    for _ in range(ways + hashes):
        if bool((filled >= hashes).all()):
            return cand_matrix
        member = np.zeros(n, dtype=bool)
        for j in range(hashes):
            member |= (j < filled) & (cand_matrix[:, j] == probe)
        take = np.flatnonzero(~member & (filled < hashes))
        if len(take):
            cand_matrix[take, filled[take]] = probe[take]
            filled[take] += 1
        probe = (probe + 1) % ways
    raise SimulationError("skewed candidate fill did not converge")


# -- the kernel --------------------------------------------------------------


class _Outcome:
    """Per-access result columns, in original stream order."""

    __slots__ = (
        "hit", "serialized", "transfers", "correct", "victim_dirty",
        "wb_absorbed", "wb_probes",
    )

    def __init__(self, n: int):
        self.hit = np.zeros(n, dtype=bool)
        self.serialized = np.zeros(n, dtype=np.int64)
        self.transfers = np.zeros(n, dtype=np.int64)
        self.correct = np.zeros(n, dtype=bool)
        self.victim_dirty = np.zeros(n, dtype=bool)
        self.wb_absorbed = np.zeros(n, dtype=bool)
        self.wb_probes = np.zeros(n, dtype=np.int64)


def _simulate(plan: _Plan, sets, tags, writes, steps) -> _Outcome:
    """Run the per-set recurrences over the whole stream."""
    n = len(sets)
    ways = plan.ways
    flow = plan.flow
    steer = plan.steer
    pred = plan.pred
    out = _Outcome(n)
    if n == 0:
        return out

    # Candidate geometry: m candidate ways per access. ``cand_matrix``
    # is materialized only when candidates vary by tag; for "all"
    # steering, candidate j is simply way j.
    if steer == "sws":
        m = plan.hashes
    elif steer == "direct":
        m = 1
    else:
        m = ways

    slot0 = sets * ways

    need_pref = (
        steer in ("pws", "sws")
        or (steer == "direct" and ways > 1)
        or pred in ("static", "perfect", "ptag")
    )
    pref = None
    if need_pref:
        pref = (_tag_hash_array(tags) & _U64(ways - 1)).astype(np.int64)

    cand_matrix = None
    if steer == "sws":
        cand_matrix = _skewed_matrix(_tag_hash_array(tags), pref, ways, plan.hashes)
    elif steer == "direct":
        cand0 = pref if ways > 1 else np.zeros(n, dtype=np.int64)
        cand_matrix = cand0[:, None]

    wanted = None
    if pred == "ptag":
        wanted = (
            (mix64_array(tags.astype(_U64)) & _U64(plan.ptag_mask))
            | _U64(1 << plan.ptag_bits)
        ).astype(np.int64)

    # Per-set counter-based RNG streams: per-access seeds precomputed,
    # per-set draw counters advanced as the recurrence consumes draws.
    repl_seeds = repl_count = None
    if steer == "all":
        repl_seeds = set_stream_seeds(plan.repl_base, sets)
        repl_count = np.zeros(plan.num_sets, dtype=np.int64)
    steer_seeds = steer_count = None
    if steer in ("pws", "sws") and m > 1:
        steer_seeds = set_stream_seeds(plan.steer_base, sets)
        steer_count = np.zeros(plan.num_sets, dtype=np.int64)
    pred_seeds = pred_count = None
    if pred == "random":
        pred_seeds = set_stream_seeds(plan.pred_base, sets)
        pred_count = np.zeros(plan.num_sets, dtype=np.int64)

    # Cache state, initialized to the freshly built defaults.
    tags_state = np.full(plan.num_sets * ways, JUNK_TAG, dtype=np.int64)
    dirty = np.zeros(plan.num_sets * ways, dtype=np.uint8)
    mru = np.zeros(plan.num_sets, dtype=np.int64) if pred == "mru" else None
    ptags = (
        np.zeros(plan.num_sets * ways, dtype=np.int64) if pred == "ptag" else None
    )

    def candidate_col(j, rows, base):
        """(way, slot) arrays of candidate position j for these rows."""
        if cand_matrix is not None:
            way = cand_matrix[rows, j]
            return way, base + way
        return j, base + j

    def scan(rows, row_tags, base):
        """First candidate position/way holding the tag (probe order)."""
        found = np.zeros(len(rows), dtype=bool)
        way_pos = np.zeros(len(rows), dtype=np.int64)
        way_phys = np.zeros(len(rows), dtype=np.int64)
        for j in range(m):
            way_j, slot_j = candidate_col(j, rows, base)
            match = ~found & (tags_state[slot_j] == row_tags)
            if match.any():
                way_pos[match] = j
                way_phys[match] = (
                    way_j[match] if isinstance(way_j, np.ndarray) else way_j
                )
                found |= match
        return found, way_pos, way_phys

    def draw(seeds, counts, rows, row_sets):
        """Next per-set stream value for each row (sets are distinct)."""
        u = mix64_array(seeds[rows] + counts[row_sets].astype(_U64))
        counts[row_sets] += 1
        return u

    two_pow_64 = float(2.0 ** 64)
    pip = plan.pip

    def step_reads(rows):
        row_sets = sets[rows]
        row_tags = tags[rows]
        base = slot0[rows]
        found, way_pos, way_phys = scan(rows, row_tags, base)
        # -- flow costs ----------------------------------------------------
        if flow == "parallel":
            serialized = np.ones(len(rows), dtype=np.int64)
            transfers = np.full(len(rows), m, dtype=np.int64)
        elif flow == "ideal":
            serialized = np.ones(len(rows), dtype=np.int64)
            transfers = serialized
        elif flow == "serial":
            serialized = np.where(found, way_pos + 1, m)
            transfers = serialized
        else:  # predicted
            if pred == "static":
                predicted = pref[rows]
            elif pred == "random":
                predicted = (
                    draw(pred_seeds, pred_count, rows, row_sets) % _U64(ways)
                ).astype(np.int64)
            elif pred == "mru":
                predicted = mru[row_sets]
            elif pred == "perfect":
                predicted = np.where(found, way_phys, pref[rows])
            else:  # ptag: first way (over ALL ways) whose partial tag matches
                predicted = pref[rows].copy()
                ptag_found = np.zeros(len(rows), dtype=bool)
                row_wanted = wanted[rows]
                for way_j in range(ways):
                    match = ~ptag_found & (ptags[base + way_j] == row_wanted)
                    if match.any():
                        predicted[match] = way_j
                        ptag_found |= match
            if cand_matrix is not None:
                # Clamp to candidates[0] when the predicted way is not a
                # legal residence for this tag, as the lookup flow does.
                in_cand = np.zeros(len(rows), dtype=bool)
                pos_pred = np.zeros(len(rows), dtype=np.int64)
                for j in range(m):
                    way_j, _ = candidate_col(j, rows, base)
                    match = ~in_cand & (way_j == predicted)
                    if match.any():
                        pos_pred[match] = j
                        in_cand |= match
                predicted = np.where(in_cand, predicted, cand_matrix[rows, 0])
                pos_pred = np.where(in_cand, pos_pred, 0)
            else:
                pos_pred = predicted  # candidate j is way j
            hit_on_pred = found & (way_phys == predicted)
            serialized = np.where(
                hit_on_pred,
                1,
                np.where(
                    found,
                    np.where(pos_pred < way_pos, way_pos + 1, way_pos + 2),
                    m,
                ),
            )
            transfers = serialized
            out.correct[rows] = hit_on_pred
        out.hit[rows] = found
        out.serialized[rows] = serialized
        out.transfers[rows] = transfers
        # -- hit-side state ------------------------------------------------
        if pred == "mru" and found.any():
            mru[row_sets[found]] = way_phys[found]
        # -- miss fill -----------------------------------------------------
        miss = ~found
        if not miss.any():
            return
        miss_rows = rows[miss]
        miss_sets = row_sets[miss]
        miss_base = base[miss]
        miss_tags = row_tags[miss]
        if steer == "direct":
            install = cand_matrix[miss_rows, 0]
        elif steer == "all":
            u = draw(repl_seeds, repl_count, miss_rows, miss_sets)
            install = (u % _U64(ways)).astype(np.int64)
        else:  # pws / sws: the PIP coin over the candidate set
            miss_pref = pref[miss_rows]
            if m == 1:
                install = miss_pref
            else:
                u1 = draw(steer_seeds, steer_count, miss_rows, miss_sets)
                spill = ~((u1.astype(np.float64) / two_pow_64) < pip)
                install = miss_pref.copy()
                if spill.any():
                    spill_rows = miss_rows[spill]
                    u2 = draw(
                        steer_seeds, steer_count, spill_rows, miss_sets[spill]
                    )
                    if steer == "pws":
                        alt = (u2 % _U64(ways - 1)).astype(np.int64)
                        spill_pref = miss_pref[spill]
                        install[spill] = alt + (alt >= spill_pref)
                    else:
                        alt = (u2 % _U64(m - 1)).astype(np.int64)
                        install[spill] = cand_matrix[spill_rows, 1 + alt]
        slot = miss_base + install
        out.victim_dirty[miss_rows] = dirty[slot] != 0
        tags_state[slot] = miss_tags
        dirty[slot] = 0
        if pred == "mru":
            mru[miss_sets] = install
        elif pred == "ptag":
            # on_evict zeroes the slot, on_install overwrites it.
            ptags[slot] = wanted[miss_rows]

    def step_writebacks(rows):
        row_tags = tags[rows]
        base = slot0[rows]
        found, way_pos, way_phys = scan(rows, row_tags, base)
        if not plan.dcp_exact:
            # No way information: probe the candidate ways in order.
            out.wb_probes[rows] = np.where(found, way_pos + 1, m)
        out.wb_absorbed[rows] = found
        if found.any():
            dirty[base[found] + way_phys[found]] = 1

    for read_rows, wb_rows in steps:
        if len(read_rows):
            step_reads(read_rows)
        if len(wb_rows):
            step_writebacks(wb_rows)
    return out


# -- reductions --------------------------------------------------------------


def _window_stats(
    plan: _Plan, writes, out: _Outcome, start: int, stop: int
) -> CacheStats:
    """Fold outcome columns over ``[start, stop)`` into CacheStats."""
    stats = CacheStats()
    is_read = writes[start:stop] == 0
    hit = out.hit[start:stop]
    serialized = out.serialized[start:stop]
    read_hit = is_read & hit
    read_miss = is_read & ~hit
    demand = int(is_read.sum())
    hits = int(read_hit.sum())
    misses = demand - hits
    wb_total = len(is_read) - demand
    absorbed = int(out.wb_absorbed[start:stop].sum())
    wb_probes = int(out.wb_probes[start:stop].sum())
    dirty_evictions = int(out.victim_dirty[start:stop].sum())
    stats.demand_reads = demand
    stats.first_probes = demand
    stats.hits = hits
    stats.misses = misses
    stats.hit_extra_probes = int(((serialized - 1) * read_hit).sum())
    stats.miss_extra_probes = int(((serialized - 1) * read_miss).sum())
    stats.cache_read_transfers = (
        int((out.transfers[start:stop] * is_read).sum()) + wb_probes
    )
    if plan.flow == "predicted":
        stats.predicted_hits = hits
        stats.correct_predictions = int(out.correct[start:stop].sum())
    stats.installs = misses
    stats.evictions = misses  # prefilled: every fill displaces a line
    stats.nvm_reads = misses
    stats.dirty_evictions = dirty_evictions
    stats.writebacks_in = wb_total
    stats.writeback_direct = absorbed
    stats.writeback_bypass = wb_total - absorbed
    stats.writeback_probe_accesses = wb_probes
    stats.cache_write_transfers = misses + absorbed
    stats.nvm_writes = dirty_evictions + (wb_total - absorbed)
    return stats


def _phase_series(
    plan: _Plan,
    writes,
    out: _Outcome,
    segments: Sequence[Segment],
    epoch: int,
    phase_sink,
) -> PhaseSeries:
    """Fold outcome columns per epoch segment into a PhaseSeries.

    Emits :class:`PhaseMetrics`-compatible samples (contiguous indices,
    cumulative ``start_access``, sink streaming in order).
    """
    samples = []
    start_access = 0
    for epoch_id, start, stop in segments:
        is_read = writes[start:stop] == 0
        hit = out.hit[start:stop]
        accesses = int(is_read.sum())
        hits = int((is_read & hit).sum())
        misses = accesses - hits
        wb_total = len(is_read) - accesses
        absorbed = int(out.wb_absorbed[start:stop].sum())
        dirty_evictions = int(out.victim_dirty[start:stop].sum())
        sample = PhaseSample(
            index=int(epoch_id),
            start_access=start_access,
            accesses=accesses,
            hits=hits,
            predicted_hits=hits if plan.flow == "predicted" else 0,
            correct_predictions=(
                int(out.correct[start:stop].sum())
                if plan.flow == "predicted"
                else 0
            ),
            nvm_reads=misses,
            nvm_writes=dirty_evictions + (wb_total - absorbed),
            writebacks=wb_total,
        )
        samples.append(sample)
        start_access += accesses
        if phase_sink is not None:
            phase_sink(sample)
    return PhaseSeries(epoch=epoch, samples=tuple(samples))


class VectorEngine:
    """Whole-trace numpy kernel for deterministic set-local designs."""

    name = "vector"

    def supports(self, cache) -> bool:
        return _build_plan(cache) is not None

    def drive(
        self,
        cache,
        stream,
        warm: int,
        segments: Sequence[Segment],
        epoch: Optional[int],
        *,
        phase_sink=None,
    ) -> Optional[PhaseSeries]:
        plan = _build_plan(cache)
        if plan is None:
            raise SimulationError(
                "vector engine cannot drive this cache exactly; use the "
                "resolver (repro.sim.engines.resolve_engine) to fall back"
            )
        sets, tags, writes, steps = _stream_arrays(stream, cache.geometry)
        out = _simulate(plan, sets, tags, writes, steps)
        cache.stats = _window_stats(plan, writes, out, warm, len(sets))
        if epoch is None:
            return None
        return _phase_series(plan, writes, out, segments, epoch, phase_sink)


__all__ = ["VectorEngine"]
