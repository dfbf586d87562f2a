"""The sparse-replay engine: vectorized pre/post passes around a fused
scalar replay of the global-state designs.

The vector engine (:mod:`repro.sim.engines.vector`) requires strictly
set-local state. The paper's headline designs break that: GWS's RIT/RLT
are *global* LRU tables keyed by 4KB region, set-dueling's PSEL is one
global saturating counter, the finite DCP is one global LRU directory,
and the column-associative cache's alternate location lives in a
different set. Those designs were stuck on the ~300k acc/s stream loop.

The key structural fact this engine exploits is that the global state
is touched *sparsely and cheaply*: per access it is a couple of dict
operations (the RIT/RLT and finite-DCP emulation below) or an integer
compare (PSEL),
while everything *around* those touches — address decomposition, tag
hashing, preferred ways, SWS candidate matrices, per-set RNG stream
seeds — is a pure per-access function. So the engine splits the work:

1. **Precompute** (vectorized): tags, regions, preferred ways, state
   offsets and SWS candidate matrices per access, plus splitmix64
   stream seeds and dueling leader roles per *touched set*, in a
   handful of numpy passes; then materialize them as plain Python
   lists for the replay loop. Per-access columns are kept to what the
   loop reads on every access: seeds and leader roles are read through
   the compact set id on the draw paths, and SWS rows are shared
   tuples, one per distinct candidate set.
2. **Replay** (one fused scalar kernel for every GWS-family design):
   one pass over the precomputed columns carrying only the *sparse*
   state — resident tags, dirty bits and per-set draw counters for the
   sets the trace touches, the RIT/RLT and the finite DCP as plain
   insertion-ordered dicts, PSEL. Each access appends a single small
   *outcome code*.
3. **Reduce** (vectorized): decode the code column into the vector
   engine's :class:`~repro.sim.engines.vector._Outcome` arrays and
   reuse its ``_window_stats`` / ``_phase_series`` reductions, so the
   CacheStats and PhaseSeries construction is shared, bit for bit.

Every expensive per-access quantity is hoisted out of the loop, so the
loop body is a few list reads and dict operations per access. The
replay stays bit-identical to the per-address reference loop (asserted
by ``tests/test_engines.py`` for every design and by the randomized
property tests). The column-associative cache has its own loop
(:func:`_replay_ca`), which counts directly instead of emitting codes.

The outcome code per access is:

* reads — ``k`` in ``1..m`` for a hit whose lookup serialized ``k``
  probes (``k == 1`` iff the prediction was correct, because the
  predicted way is always probed first); ``-1`` for a miss over a clean
  victim, ``-2`` over a dirty one (prefilled stores make every fill an
  eviction);
* writebacks — ``100 + probes`` when absorbed, ``200 + probes`` when
  bypassed (``probes`` is 0 under an exact DCP, which answers without
  touching the ways, and under a finite DCP that still holds the line).

The finite DCP (:class:`~repro.cache.dcp.FiniteDcpDirectory`) replays
five events: insert on install, removal of the victim's line on
evict, a refresh on a writeback that hits it (no probes), a re-learn
after a probe finds a line it forgot, and LRU eviction past its
capacity.

Like the vector engine, this engine assumes a freshly built cache
(junk-prefilled dense store, empty region tables, midpoint PSEL, empty
DCP) and replays against its own state, never the cache's. ``supports``
declines anything else, including policy subclasses — dispatch is on
exact types, since a subclass may override any method.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from repro.cache.ca_cache import ColumnAssociativeCache
from repro.cache.dcp import DcpDirectory, FiniteDcpDirectory
from repro.cache.lookup import WayPredictedLookup
from repro.cache.replacement import RandomReplacement
from repro.cache.storage import JUNK_TAG
from repro.core.dueling import DuelingPwsSteering
from repro.core.gws import GangedWayPredictor, GangedWaySteering
from repro.core.prediction import RandomPredictor, StaticPreferredPredictor
from repro.core.protocols import cache_is_replay_vectorizable
from repro.core.pws import ProbabilisticWaySteering
from repro.core.steering import UnbiasedSteering
from repro.core.sws import SkewedWaySteering
from repro.errors import SimulationError
from repro.sim.engines.base import Segment, has_fresh_dense_store
from repro.sim.engines.vector import (
    _Outcome,
    _phase_series,
    _skewed_matrix,
    _stream_arrays,
    _tag_hash_array,
    _window_stats,
)
from repro.sim.phases import PhaseSeries
from repro.sim.stats import CacheStats
from repro.utils.rng import set_stream_seeds

_U64 = np.uint64

# splitmix64 constants, inlined in the replay kernel (one function call
# per draw would double the kernel time).
_M64 = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB
_TWO64 = float(1 << 64)


class _ReplayPlan:
    """Classification of one cache into replay-kernel flavors."""

    __slots__ = (
        "family",       # "gws" (GWS-wrapped DramCache) | "ca"
        "ways", "m", "hashes",
        "steer",        # fallback install: unbiased | pws | sws | dueling
        "pred",         # fallback predict: static | random
        "pip", "steer_base", "repl_base", "pred_base",
        "pip_low", "pip_high", "low_base", "high_base", "psel_max",
        "rit_entries", "rlt_entries", "steer_region", "pred_region",
        "dcp",          # "exact" | "finite" | "none"
        "dcp_capacity",
    )


def _build_replay_plan(cache) -> Optional[_ReplayPlan]:
    """Classify ``cache`` for the replay kernels; None when ineligible.

    Mirrors the vector engine's ``_build_plan`` discipline: exact-type
    dispatch plus fresh-state checks (prefilled store, empty RIT/RLT,
    midpoint PSEL, empty DCP), so the kernel's replayed-from-defaults
    state provably matches the cache it never touches.
    """
    if type(cache) is ColumnAssociativeCache:
        if cache._lines or cache._dirty:
            return None  # fresh-cache contract
        plan = _ReplayPlan()
        plan.family = "ca"
        plan.ways = 1
        return plan

    path = getattr(cache, "path", None)
    if path is None or path.observers:
        return None
    if not has_fresh_dense_store(cache):
        return None  # fresh-cache contract: junk-prefilled dense store
    geometry = cache.geometry
    if type(cache.lookup) is not WayPredictedLookup:
        return None
    if type(cache.replacement) is not RandomReplacement:
        return None

    steering = cache.steering
    if type(steering) is not GangedWaySteering or len(steering.rit) != 0:
        return None
    predictor = cache.predictor
    if type(predictor) is not GangedWayPredictor or len(predictor.rlt) != 0:
        return None

    plan = _ReplayPlan()
    plan.family = "gws"
    plan.ways = geometry.ways
    plan.rit_entries = steering.rit.entries
    plan.rlt_entries = predictor.rlt.entries
    plan.steer_region = steering.region_size
    plan.pred_region = predictor.region_size
    plan.repl_base = cache.replacement._rng._base
    plan.hashes = 0
    plan.m = plan.ways

    fallback = steering.fallback
    fallback_type = type(fallback)
    if fallback_type is UnbiasedSteering:
        plan.steer = "unbiased"
    elif fallback_type is ProbabilisticWaySteering:
        plan.steer = "pws"
        plan.pip = fallback.pip
        plan.steer_base = fallback._rng._base
    elif fallback_type is SkewedWaySteering:
        plan.steer = "sws"
        plan.hashes = fallback.hashes
        plan.m = fallback.hashes
        plan.pip = fallback.pip
        plan.steer_base = fallback._pws._rng._base
    elif fallback_type is DuelingPwsSteering:
        if fallback.psel != fallback.psel_max // 2:
            return None  # fresh-cache contract: PSEL at midpoint
        plan.steer = "dueling"
        plan.psel_max = fallback.psel_max
        plan.pip_low = fallback._low.pip
        plan.pip_high = fallback._high.pip
        plan.low_base = fallback._low._rng._base
        plan.high_base = fallback._high._rng._base
    else:
        return None

    pred_fallback = predictor.fallback
    pred_type = type(pred_fallback)
    if pred_type is StaticPreferredPredictor:
        plan.pred = "static"
    elif pred_type is RandomPredictor:
        plan.pred = "random"
        plan.pred_base = pred_fallback._rng._base
    else:
        return None

    dcp = cache.dcp
    plan.dcp_capacity = 0
    if dcp is None:
        plan.dcp = "none"
        return plan
    if type(dcp) is DcpDirectory:
        plan.dcp = "exact"
    elif type(dcp) is FiniteDcpDirectory:
        plan.dcp = "finite"
        plan.dcp_capacity = dcp.capacity
    else:
        return None
    if len(dcp) != 0:
        return None  # fresh-cache contract: empty directory
    return plan


# -- the GWS-family replay kernel --------------------------------------------
#
# The kernel reproduces, in order, exactly what the access path does:
#
#   read:  predict via RLT (lookup refreshes recency) else fallback;
#          probe predicted first, then remaining candidates; on a hit
#          record the hit way in the RLT. On a miss: GWS install choice
#          (RIT lookup; fallback coin/draw + RIT record on RIT miss),
#          evict (always a displacement: junk prefill), install, then
#          the on_install hooks re-record RIT and RLT and a finite DCP
#          swaps the victim's entry for the new line's.
#   wb:    exact DCP answers membership with zero probes; a finite DCP
#          that holds the line answers with zero probes and refreshes
#          it; otherwise the candidate ways are probed in order, and a
#          finite DCP re-learns a line the probe finds.
#
# The RecentRegionTable and the finite DCP (OrderedDict LRUs) are
# emulated with a plain dict
# relying on insertion order: move_to_end == del+reinsert, popitem(
# last=False) == del first key. Plain dicts are measurably faster than
# OrderedDict in this loop.


def _interned_rows(cand_matrix: np.ndarray) -> list:
    """One candidate tuple per access, shared between equal rows.

    The trace holds one tuple per distinct candidate set and a pointer
    per access, instead of a fresh list per access. Rows are grouped by
    a column-wise lexsort, exact for any way and hash count and several
    times faster than ``np.unique(axis=0)``.
    """
    order = np.lexsort(cand_matrix.T[::-1])
    ranked = cand_matrix[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    rows = [tuple(row) for row in ranked[starts].tolist()]
    return [rows[k] for k in inverse.tolist()]


def _replay_gws(plan, sets_a, compact_a, tags_a, writes_a, addrs):
    """The GWS-family kernel: any way count, identity or SWS candidate
    sets, all fallback modes, every DCP mode.

    State covers only the sets the trace touches: way ``w`` of an
    access's set is slot ``base + w``, with ``base = compact * ways``
    and ``compact`` the dense touched-set id. The per-set stream seeds
    and the dueling leader roles are tables over the touched sets,
    read through the compact id ``base >> wshift`` on the draw paths
    only, so no per-access column carries them.

    The finite DCP is a dict keyed by slot in LRU order. While a line
    is resident, "its slot is in the dict" is exactly "its line is in
    the directory": the slot's entry is dropped when the line is
    evicted and re-made for the line installed there.
    """
    ways = plan.ways
    hashed = _tag_hash_array(tags_a)
    pref_a = (hashed & _U64(ways - 1)).astype(np.int64)
    sregion_a = addrs // np.int64(plan.steer_region)
    base_a = compact_a * np.int64(ways)
    steer = plan.steer
    pred = plan.pred
    m = plan.m

    if steer == "sws":
        cand_rows = _interned_rows(
            _skewed_matrix(hashed, pref_a, ways, plan.hashes)
        )
    else:
        cand_rows = repeat(None)

    touched = int(compact_a.max()) + 1 if len(compact_a) else 0
    set_of = np.zeros(touched, dtype=np.int64)
    set_of[compact_a] = sets_a  # compact id -> original set index

    def seeds(base):
        return set_stream_seeds(base, set_of).tolist()

    seed1 = seed2 = pseed = leader = None
    if steer == "dueling":
        seed1 = seeds(plan.low_base)
        seed2 = seeds(plan.high_base)
        # 0: follower, 1: low-PIP leader, 2: high-PIP leader.
        leader = np.where(set_of & 31, 0, 1 + ((set_of >> 5) & 1)).tolist()
    elif steer in ("pws", "sws"):
        seed1 = seeds(plan.steer_base)
    else:  # unbiased
        seed1 = seeds(plan.repl_base)
    if pred == "random":
        pseed = seeds(plan.pred_base)

    writes_l = writes_a.tolist()
    tags_l = tags_a.tolist()
    regions_l = sregion_a.tolist()
    pref_l = pref_a.tolist()
    base_l = base_a.tolist()
    # Free the per-access arrays now rather than after the loop: they
    # would add to the drive's peak alongside their list forms.
    del hashed, pref_a, sregion_a, base_a
    if plan.pred_region == plan.steer_region:
        pregion_l = regions_l
    else:
        pregion_l = (addrs // np.int64(plan.pred_region)).tolist()
    all_ways = tuple(range(ways))

    tags_state = [JUNK_TAG] * (touched * ways)
    dirty = bytearray(touched * ways)
    rit: dict = {}
    rlt: dict = {}
    rit_get = rit.get
    rlt_get = rlt.get
    rit_entries = plan.rit_entries
    rlt_entries = plan.rlt_entries
    # Draw counters are per set, so they are indexed by the compact set
    # id ``base >> wshift`` (computed only on the draw paths) and sized
    # by the touched sets rather than by slots.
    wshift = ways.bit_length() - 1
    cnt1 = [0] * touched   # low/pws/sws/replacement stream counters
    cnt2 = [0] * touched   # dueling high-instance stream counters
    pcnt = [0] * touched   # random-predictor stream counters
    psel = (plan.psel_max // 2) if steer == "dueling" else 0
    psel_max = plan.psel_max if steer == "dueling" else 0
    psel_mid = psel_max // 2
    pip = plan.pip if steer in ("pws", "sws") else 0.0
    pip_low = plan.pip_low if steer == "dueling" else 0.0
    pip_high = plan.pip_high if steer == "dueling" else 0.0
    dcp_exact = plan.dcp == "exact"
    dcp_finite = plan.dcp == "finite"
    dcp: dict = {}  # finite DCP: slot -> None, least recent first
    dcp_capacity = plan.dcp_capacity
    dueling = steer == "dueling"
    unbiased = steer == "unbiased"
    pred_random = pred == "random"

    codes = []
    code_append = codes.append

    for w, t, rg, prg, pf, base, row in zip(
        writes_l, tags_l, regions_l, pregion_l, pref_l, base_l, cand_rows,
    ):
        candidates = all_ways if row is None else row
        if w:
            # writeback: exact DCP answers with zero probes; otherwise
            # the candidate ways are probed in order, unless a finite
            # DCP still holds the line's way.
            if dcp_exact:
                for way in candidates:
                    if tags_state[base + way] == t:
                        dirty[base + way] = 1
                        code_append(100)
                        break
                else:
                    code_append(200)
            else:
                probes = 0
                for way in candidates:
                    probes += 1
                    slot = base + way
                    if tags_state[slot] == t:
                        dirty[slot] = 1
                        if dcp_finite:
                            if slot in dcp:
                                # directory hit: refresh, no probes
                                del dcp[slot]
                                probes = 0
                            dcp[slot] = None  # (re-)learn the way
                            if len(dcp) > dcp_capacity:
                                del dcp[next(iter(dcp))]
                        code_append(100 + probes)
                        break
                else:
                    code_append(200 + probes)
            continue
        # -- read: predict (RLT lookup refreshes recency) -------------------
        pw = rlt_get(prg)
        if pw is None:
            if pred_random:
                sid = base >> wshift
                c = pcnt[sid]
                pcnt[sid] = c + 1
                z = (pseed[sid] + c + _C1) & _M64
                z = ((z ^ (z >> 30)) * _C2) & _M64
                z = ((z ^ (z >> 27)) * _C3) & _M64
                predicted = ((z ^ (z >> 31)) & _M64) % ways
            else:
                predicted = pf
        else:
            del rlt[prg]
            rlt[prg] = pw
            predicted = pw
        if row is not None and predicted not in row:
            # The lookup flow clamps an illegal prediction to the first
            # legal candidate.
            predicted = row[0]
        if tags_state[base + predicted] == t:
            code_append(1)
            if prg in rlt:
                del rlt[prg]
            rlt[prg] = predicted
            if len(rlt) > rlt_entries:
                del rlt[next(iter(rlt))]
            continue
        probes = 1
        hit_way = -1
        for way in candidates:
            if way == predicted:
                continue
            probes += 1
            if tags_state[base + way] == t:
                hit_way = way
                break
        if hit_way >= 0:
            code_append(probes)
            if prg in rlt:
                del rlt[prg]
            rlt[prg] = hit_way
            if len(rlt) > rlt_entries:
                del rlt[next(iter(rlt))]
            continue
        # -- miss: GWS install choice ----------------------------------------
        g = rit_get(rg)
        if g is not None and (row is None or g in row):
            del rit[rg]
            way = g
        else:
            if g is not None:
                # RIT hit outside the candidate set: recency was still
                # refreshed by the lookup; the fallback decides and its
                # record overwrites the stale way.
                del rit[rg]
                rit[rg] = g
            sid = base >> wshift
            c = cnt1[sid]
            sd1 = seed1[sid]
            z = (sd1 + c + _C1) & _M64
            z = ((z ^ (z >> 30)) * _C2) & _M64
            z = ((z ^ (z >> 27)) * _C3) & _M64
            z ^= z >> 31
            if unbiased:
                cnt1[sid] = c + 1
                way = candidates[z % len(candidates)]
            elif dueling:
                lead = leader[sid]
                if lead == 1:
                    low = True
                    if psel > 0:
                        psel -= 1
                elif lead == 2:
                    low = False
                    if psel < psel_max:
                        psel += 1
                else:
                    low = psel > psel_mid
                if low:
                    cnt1[sid] = c + 1
                    if z / _TWO64 < pip_low:
                        way = pf
                    else:
                        c2 = cnt1[sid]
                        cnt1[sid] = c2 + 1
                        z = (sd1 + c2 + _C1) & _M64
                        z = ((z ^ (z >> 30)) * _C2) & _M64
                        z = ((z ^ (z >> 27)) * _C3) & _M64
                        z ^= z >> 31
                        alt = z % (ways - 1)
                        way = alt + (alt >= pf)
                else:
                    sd2 = seed2[sid]
                    c2 = cnt2[sid]
                    z = (sd2 + c2 + _C1) & _M64
                    z = ((z ^ (z >> 30)) * _C2) & _M64
                    z = ((z ^ (z >> 27)) * _C3) & _M64
                    z ^= z >> 31
                    cnt2[sid] = c2 + 1
                    if z / _TWO64 < pip_high:
                        way = pf
                    else:
                        c3 = cnt2[sid]
                        cnt2[sid] = c3 + 1
                        z = (sd2 + c3 + _C1) & _M64
                        z = ((z ^ (z >> 30)) * _C2) & _M64
                        z = ((z ^ (z >> 27)) * _C3) & _M64
                        z ^= z >> 31
                        alt = z % (ways - 1)
                        way = alt + (alt >= pf)
            else:  # pws / sws: the PIP coin over the candidate set
                if m == 1 or z / _TWO64 < pip:
                    cnt1[sid] = c + 1 if m > 1 else c
                    way = pf
                else:
                    c2 = c + 1
                    cnt1[sid] = c2 + 1
                    z = (sd1 + c2 + _C1) & _M64
                    z = ((z ^ (z >> 30)) * _C2) & _M64
                    z = ((z ^ (z >> 27)) * _C3) & _M64
                    z ^= z >> 31
                    if row is None:
                        alt = z % (ways - 1)
                        way = alt + (alt >= pf)
                    else:
                        way = row[1 + z % (m - 1)]
        slot = base + way
        code_append(-2 if dirty[slot] else -1)
        tags_state[slot] = t
        dirty[slot] = 0
        if dcp_finite:
            # The victim's entry (if the directory still holds it)
            # leaves; the installed line's entry is the newest.
            if slot in dcp:
                del dcp[slot]
            dcp[slot] = None
            if len(dcp) > dcp_capacity:
                del dcp[next(iter(dcp))]
        if rg in rit:
            del rit[rg]
        rit[rg] = way
        if len(rit) > rit_entries:
            del rit[next(iter(rit))]
        if prg in rlt:
            del rlt[prg]
        rlt[prg] = way
        if len(rlt) > rlt_entries:
            del rlt[next(iter(rlt))]
    return codes


def _decode(plan, n, codes) -> _Outcome:
    """Decode the replay's code column into vector-engine outcome arrays."""
    code_arr = np.array(codes, dtype=np.int64)
    out = _Outcome(n)
    is_hit = (code_arr >= 1) & (code_arr < 100)
    out.hit = is_hit
    out.serialized = np.where(is_hit, code_arr, plan.m)
    out.transfers = out.serialized
    out.correct = is_hit & (code_arr == 1)
    out.victim_dirty = code_arr == -2
    is_wb = code_arr >= 100
    out.wb_absorbed = is_wb & (code_arr < 200)
    out.wb_probes = np.where(is_wb, code_arr % 100, 0)
    return out


# -- the column-associative replay -------------------------------------------


def _replay_ca(cache, stream, warm) -> CacheStats:
    """Fused scalar replay of :class:`ColumnAssociativeCache`.

    Local list/bytearray state instead of dict/set, precomputed index
    columns, and one loop (:func:`_ca_advance`) run over the warm-up
    slice, whose counters are dropped, then over the measured window;
    the flow mirrors ``read``/``_fill``/``writeback`` line for line. The CA
    model has no observer hook, so (like the loop engine) the run is
    never phase-resolved and a plain stats fold suffices.
    """
    geometry = cache.geometry
    num_sets = geometry.num_sets
    addrs = stream.trace.numpy_addrs()
    writes_a = stream.trace.numpy_writes()
    lines_a = addrs >> np.int64(geometry.offset_bits)
    firsts_a = lines_a & np.int64(num_sets - 1)

    writes_l = writes_a.tolist()
    lines_l = lines_a.tolist()
    firsts_l = firsts_a.tolist()

    lines = [-1] * num_sets
    dirty = bytearray(num_sets)
    rehash_bit = 1 << (geometry.index_bits - 1)
    _ca_advance(
        lines, dirty, rehash_bit,
        writes_l[:warm], lines_l[:warm], firsts_l[:warm],
    )
    return _ca_advance(
        lines, dirty, rehash_bit,
        writes_l[warm:], lines_l[warm:], firsts_l[warm:],
    )


def _ca_advance(lines, dirty, rehash_bit, writes_l, lines_l, firsts_l):
    """Advance the CA state over one slice of the trace; return the
    slice's counters as :class:`CacheStats`."""
    demand = hits = correct = hit_extra = miss_extra = 0
    swaps = installs = evictions = dirty_ev = nvm_w = 0
    wbs = wb_direct = wb_bypass = 0
    for w, line, first in zip(writes_l, lines_l, firsts_l):
        second = first ^ rehash_bit
        if w:
            wbs += 1
            if lines[first] == line:
                dirty[first] = 1
                wb_direct += 1
            elif lines[second] == line:
                dirty[second] = 1
                wb_direct += 1
            else:
                wb_bypass += 1
                nvm_w += 1
            continue
        demand += 1
        if lines[first] == line:
            hits += 1
            correct += 1
            continue
        if lines[second] == line:
            hits += 1
            hit_extra += 1
            lines[first], lines[second] = lines[second], lines[first]
            dirty[first], dirty[second] = dirty[second], dirty[first]
            swaps += 2
            continue
        miss_extra += 1
        displaced = lines[first]
        if displaced != -1:
            if lines[second] != -1:
                evictions += 1
                if dirty[second]:
                    dirty_ev += 1
                    nvm_w += 1
            lines[second] = displaced
            dirty[second] = dirty[first]
            swaps += 1
        lines[first] = line
        dirty[first] = 0
        installs += 1

    misses = demand - hits
    stats = CacheStats()
    stats.demand_reads = demand
    stats.first_probes = demand
    stats.hits = hits
    stats.misses = misses
    stats.predicted_hits = hits
    stats.correct_predictions = correct
    stats.hit_extra_probes = hit_extra
    stats.miss_extra_probes = miss_extra
    # Every read costs 1 transfer at the preferred index plus 1 more
    # unless it hit there (rehash probe on second-try hits and misses).
    stats.cache_read_transfers = 2 * demand - correct
    stats.swap_transfers = swaps
    stats.installs = installs
    stats.evictions = evictions
    stats.dirty_evictions = dirty_ev
    stats.nvm_reads = misses
    stats.writebacks_in = wbs
    stats.writeback_direct = wb_direct
    stats.writeback_bypass = wb_bypass
    stats.cache_write_transfers = installs + wb_direct
    stats.nvm_writes = nvm_w
    return stats


class SparseReplayEngine:
    """Vectorized pre/post passes around a fused scalar global-state
    replay; covers the designs the vector engine must decline."""

    name = "replay"

    def supports(self, cache) -> bool:
        return (
            cache_is_replay_vectorizable(cache)
            and _build_replay_plan(cache) is not None
        )

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
        plan = _build_replay_plan(cache)
        if plan is None:
            raise SimulationError(
                "replay engine cannot drive this cache exactly; use the "
                "resolver (repro.sim.engines.resolve_engine) to fall back"
            )
        if plan.family == "ca":
            cache.stats = _replay_ca(cache, stream, warm)
            return None  # the CA model is never phase-resolved
        sets_a, tags_a, writes_a, _steps, compact_a = _stream_arrays(
            stream, cache.geometry
        )
        addrs = stream.trace.numpy_addrs()
        codes = _replay_gws(plan, sets_a, compact_a, tags_a, writes_a, addrs)
        out = _decode(plan, len(sets_a), codes)
        # All GWS-family designs way-predict.
        cache.stats = _window_stats(True, writes_a, out, warm, len(sets_a))
        if epoch is None:
            return None
        return _phase_series(True, writes_a, out, segments, epoch, phase_sink)


__all__ = ["SparseReplayEngine"]
