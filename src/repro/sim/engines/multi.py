"""Fused multi-config kernel: K same-trace configs in one vector pass.

A parameter sweep evaluates many configs over one trace, and for the
vectorizable designs most of the kernel's work is *config-independent*:
the sorted step plan, the tag hashes and preferred ways, the SWS
candidate matrix, and — dominating the runtime — the per-rank Python
loop dispatching a handful of numpy ops over small row groups. This
module extends the vector kernel (:mod:`repro.sim.engines.vector`) with
a leading **config axis**: K configs whose kernel plans share a
:func:`plan_signature` evaluate together, sharing every per-access
precompute and gather while keeping per-config state (resident tags,
dirty bits, predictor state, RNG streams) as an extra array dimension.
One pass over the rank groups then costs roughly one config's dispatch
overhead for K configs' worth of work.

What may differ inside one fused group is exactly the per-config data
the kernel parameterizes per row of the config axis: the PIP spill
probability, the counter-based RNG stream bases (functions of the
config seed), and the partial-tag layout. Everything that shapes the
*control flow* — lookup flow, steering family, predictor kind, way
count, set count, hash count, DCP exactness — is part of the signature
and therefore shared.

Outcomes are decoded back into K independent per-config
:class:`~repro.sim.engines.vector._Outcome` row views and folded by the
single-config reductions (``_window_stats`` / ``_phase_series``)
verbatim, so each member's :class:`~repro.sim.stats.CacheStats` and
:class:`~repro.sim.phases.PhaseSeries` are bit-identical to K separate
:class:`~repro.sim.engines.vector.VectorEngine` runs (asserted by
``tests/test_multi.py``). Designs the vector kernel declines fall back
to sequential per-config drives in :func:`repro.exec.batching.run_batch`
— still sharing the trace bytes and the step plan, just not the pass.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.storage import JUNK_TAG
from repro.errors import SimulationError
from repro.sim.engines.base import Segment
from repro.sim.engines.vector import (
    _Outcome,
    _Plan,
    _build_plan,
    _phase_series,
    _simulate,
    _skewed_matrix,
    _stream_arrays,
    _tag_hash_array,
    _window_stats,
    _U64,
)
from repro.sim.phases import PhaseSeries
from repro.sim.stats import CacheStats
from repro.utils.rng import mix64_array, set_stream_seeds

#: Process-local count of fused kernel passes (each covering K >= 2
#: configs); exposed for the batching tests and ``profile`` output.
_FUSED_PASSES = 0
_FUSED_CONFIGS = 0

#: Compact-set remaps memoized per stream-array identity. The ``sets``
#: array itself comes from the per-trace plan memo
#: (:func:`repro.sim.engines.vector._stream_arrays`), so its object
#: identity is stable across the fused passes of one sweep; the entry
#: keeps a reference so an ``id`` reuse can never alias a dead array.
_COMPACT_MEMO: "OrderedDict[int, Tuple]" = OrderedDict()
_COMPACT_MEMO_LIMIT = 8


def _compact_map(sets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(sets, return_inverse=True)``, memoized by identity."""
    key = id(sets)
    entry = _COMPACT_MEMO.get(key)
    if entry is not None and entry[0] is sets:
        _COMPACT_MEMO.move_to_end(key)
        return entry[1], entry[2]
    touched, compact = np.unique(sets, return_inverse=True)
    _COMPACT_MEMO[key] = (sets, touched, compact)
    while len(_COMPACT_MEMO) > _COMPACT_MEMO_LIMIT:
        _COMPACT_MEMO.popitem(last=False)
    return touched, compact


def fused_pass_count() -> Tuple[int, int]:
    """(fused kernel passes, configs covered by them) in this process."""
    return _FUSED_PASSES, _FUSED_CONFIGS


def fusion_plan(cache) -> Optional[_Plan]:
    """The cache's vector-kernel plan, or None when not vectorizable."""
    return _build_plan(cache)


def plan_signature(plan: _Plan) -> Tuple:
    """Control-flow identity of a kernel plan.

    Two plans with equal signatures take identical branches through the
    kernel on every access, so they can share one fused pass; the
    remaining plan fields (``pip``, the RNG bases, the partial-tag
    layout) become per-config axis data.
    """
    return (
        plan.flow, plan.steer, plan.pred, plan.ways, plan.num_sets,
        plan.hashes, plan.dcp_exact,
    )


class FusedRun:
    """One member of a fused drive: its plan plus its measurement plan."""

    __slots__ = ("plan", "warm", "segments", "epoch")

    def __init__(
        self,
        plan: _Plan,
        warm: int,
        segments: Sequence[Segment],
        epoch: Optional[int],
    ):
        self.plan = plan
        self.warm = warm
        self.segments = segments
        self.epoch = epoch


def _simulate_fused(
    plans: Sequence[_Plan], sets, tags, writes, steps
) -> List[_Outcome]:
    """K same-signature recurrences in one pass; per-config outcomes.

    Structured exactly like :func:`repro.sim.engines.vector._simulate`
    with a leading config axis: shared quantities stay 1-D ``(rows,)``
    and broadcast, per-config quantities are 2-D ``(K, ...)``, and the
    divergent scatters (miss fills, writeback absorption) go through
    ``np.nonzero`` pair lists into flattened per-config state. Draw
    counter advancement is masked — a config consumes a stream value
    only where the scalar model would — so every config's RNG sequence
    is bit-identical to its solo run.

    State is allocated over the trace's *touched* sets only: set
    indices are remapped to compact ids (``np.unique``) so the K-fold
    resident/dirty/counter arrays scale with the trace footprint rather
    than the geometry (a short trace touches a few tens of thousands of
    a scaled geometry's hundreds of thousands of sets). Untouched sets
    hold junk tags and zero counters in the scalar model and are never
    read, so dropping them changes nothing; the per-access RNG stream
    seeds are still derived from the *original* set indices, keeping
    every draw bit-identical.
    """
    K = len(plans)
    p0 = plans[0]
    for p in plans[1:]:
        if plan_signature(p) != plan_signature(p0):
            raise SimulationError(
                "fused kernel requires plans with identical signatures"
            )
    n = len(sets)
    ways = p0.ways
    flow = p0.flow
    steer = p0.steer
    pred = p0.pred

    # Config-last layout: every per-access quantity is ``(rows, K)`` and
    # every state array is ``(slots, K)``, so all gathers and scatters
    # indexed by a row list touch contiguous K-wide strips (one memcpy
    # per row) instead of K strided columns. Outcomes are accumulated
    # ``(n, K)`` — probe counts as int16, large enough for any value up
    # to ``ways + 2`` — and transposed/widened once at decode time, so
    # each decoded row matches a solo run's int64 outcome exactly.
    # ``transfers`` equals ``serialized`` for every flow except
    # parallel; decode shares the array rather than accumulating both.
    hit = np.zeros((n, K), dtype=bool)
    serialized_out = np.zeros((n, K), dtype=np.int16)
    transfers_out = (
        np.zeros((n, K), dtype=np.int16) if flow == "parallel" else None
    )
    correct = np.zeros((n, K), dtype=bool)
    victim_dirty = np.zeros((n, K), dtype=bool)
    wb_absorbed = np.zeros((n, K), dtype=bool)
    wb_probes = np.zeros((n, K), dtype=np.int16)

    def decode() -> List[_Outcome]:
        serializedT = np.ascontiguousarray(serialized_out.T).astype(np.int64)
        if transfers_out is None:
            transfersT = serializedT
        else:
            transfersT = np.ascontiguousarray(
                transfers_out.T
            ).astype(np.int64)
        probesT = np.ascontiguousarray(wb_probes.T).astype(np.int64)
        hitT = np.ascontiguousarray(hit.T)
        correctT = np.ascontiguousarray(correct.T)
        victimT = np.ascontiguousarray(victim_dirty.T)
        absorbedT = np.ascontiguousarray(wb_absorbed.T)
        outs = []
        for k in range(K):
            out = _Outcome.__new__(_Outcome)
            out.hit = hitT[k]
            out.serialized = serializedT[k]
            out.transfers = transfersT[k]
            out.correct = correctT[k]
            out.victim_dirty = victimT[k]
            out.wb_absorbed = absorbedT[k]
            out.wb_probes = probesT[k]
            outs.append(out)
        return outs

    if n == 0:
        return decode()

    if steer == "sws":
        m = p0.hashes
    elif steer == "direct":
        m = 1
    else:
        m = ways

    # Compact-set remap: per-config state covers touched sets only.
    # RNG seeds below keep using the original ``sets`` indices.
    touched, compact = _compact_map(sets)
    num_slots = len(touched)
    slot0 = compact * ways

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
        cand_matrix = _skewed_matrix(
            _tag_hash_array(tags), pref, ways, p0.hashes
        )
    elif steer == "direct":
        cand0 = pref if ways > 1 else np.zeros(n, dtype=np.int64)
        cand_matrix = cand0[:, None]

    wanted = None
    if pred == "ptag":
        # The partial-tag layout is per-config data (bits are not part
        # of the signature), so the wanted-tag matrix gets a config axis.
        hashed_tags = mix64_array(tags.astype(_U64))
        wanted = np.stack(
            [
                (
                    (hashed_tags & _U64(p.ptag_mask))
                    | _U64(1 << p.ptag_bits)
                ).astype(np.int64)
                for p in plans
            ],
            axis=1,
        )

    def config_seeds(attr: str) -> np.ndarray:
        """Per-set stream seeds: ``(n,)`` when every config shares the
        stream base (the common sweep case — bases derive from the run
        seed, not the swept parameter), ``(n, K)`` otherwise."""
        bases = [getattr(p, attr) for p in plans]
        memo = {}
        for b in bases:
            if b not in memo:
                memo[b] = set_stream_seeds(b, sets)
        if len(memo) == 1:
            return memo[bases[0]]
        return np.stack([memo[b] for b in bases], axis=1)

    def seed_rows(seeds, rows):
        """Seed block broadcastable against ``(len(rows), K)``."""
        return seeds[rows][:, None] if seeds.ndim == 1 else seeds[rows]

    def seed_pairs(seeds, prows, kk):
        """Seeds for a ``(row, config)`` pair list."""
        return seeds[prows] if seeds.ndim == 1 else seeds[prows, kk]

    # Draw counters live in the seeds' uint64 domain so the per-draw
    # ``seed + count`` additions need no widening casts.
    repl_seeds = repl_count = None
    if steer == "all":
        repl_seeds = config_seeds("repl_base")
        repl_count = np.zeros((num_slots, K), dtype=_U64)
    steer_seeds = steer_count = None
    if steer in ("pws", "sws") and m > 1:
        steer_seeds = config_seeds("steer_base")
        steer_count = np.zeros((num_slots, K), dtype=_U64)
    pred_seeds = pred_count = None
    if pred == "random":
        pred_seeds = config_seeds("pred_base")
        pred_count = np.zeros((num_slots, K), dtype=_U64)

    tags_state = np.full((num_slots * ways, K), JUNK_TAG, dtype=np.int64)
    dirty = np.zeros((num_slots * ways, K), dtype=np.uint8)
    mru = np.zeros((num_slots, K), dtype=np.int64) if pred == "mru" else None
    ptags = (
        np.zeros((num_slots * ways, K), dtype=np.int64)
        if pred == "ptag"
        else None
    )
    # Flat views for the pair-list scatters (C-contiguous by construction;
    # element (slot, k) lives at flat index slot * K + k).
    tags_flat = tags_state.reshape(-1)
    dirty_flat = dirty.reshape(-1)
    ptags_flat = ptags.reshape(-1) if ptags is not None else None

    way_range = np.arange(m, dtype=np.int64)

    def scan(rows, row_tags, base):
        """First candidate position/way holding the tag, per config.

        One block gather pulls all m candidate slots of every row —
        ``(rows, m, K)`` — and ``argmax`` over the candidate axis finds
        the first match (a tag resides in at most one way of a set, so
        "first" and "only" coincide). ``way_pos``/``way_phys`` are
        meaningless where ``found`` is False; every consumer masks.
        ``m == 2`` (the common associativity) takes a flat path: two
        2-D gathers and a select beat the 3-D gather + argmax.
        """
        if m == 2:
            wide = row_tags[:, None]
            if cand_matrix is None:
                eq0 = tags_state[base] == wide
                eq1 = tags_state[base + 1] == wide
                way_phys = way_pos = np.where(eq0, 0, 1)
            else:
                c0 = cand_matrix[rows, 0]
                c1 = cand_matrix[rows, 1]
                eq0 = tags_state[base + c0] == wide
                eq1 = tags_state[base + c1] == wide
                way_pos = np.where(eq0, 0, 1)
                way_phys = np.where(eq0, c0[:, None], c1[:, None])
            return eq0 | eq1, way_pos, way_phys
        if cand_matrix is not None:
            cand_rows = cand_matrix[rows]
            block = tags_state[base[:, None] + cand_rows]
        else:
            cand_rows = None
            block = tags_state[base[:, None] + way_range]
        eq = block == row_tags[:, None, None]
        found = eq.any(axis=1)
        way_pos = eq.argmax(axis=1)
        if cand_rows is None:
            way_phys = way_pos
        else:
            way_phys = cand_rows[
                np.arange(len(rows))[:, None], way_pos
            ]
        return found, way_pos, way_phys

    two_pow_64 = float(2.0 ** 64)
    pip_arr = np.array([p.pip for p in plans], dtype=np.float64)

    def step_reads(rows):
        shape = (len(rows), K)
        row_sets = compact[rows]
        row_tags = tags[rows]
        base = slot0[rows]
        found, way_pos, way_phys = scan(rows, row_tags, base)
        # -- flow costs ----------------------------------------------------
        if flow == "parallel":
            serialized = np.ones(shape, dtype=np.int16)
            transfers = np.full(shape, m, dtype=np.int16)
        elif flow == "ideal":
            serialized = np.ones(shape, dtype=np.int16)
            transfers = serialized
        elif flow == "serial":
            serialized = np.where(found, way_pos + 1, m)
            transfers = serialized
        else:  # predicted
            if pred == "static":
                predicted = np.broadcast_to(pref[rows][:, None], shape)
            elif pred == "random":
                u = mix64_array(
                    seed_rows(pred_seeds, rows) + pred_count[row_sets]
                )
                pred_count[row_sets] += 1
                predicted = (u % _U64(ways)).astype(np.int64)
            elif pred == "mru":
                predicted = mru[row_sets]
            elif pred == "perfect":
                predicted = np.where(found, way_phys, pref[rows][:, None])
            else:  # ptag: first way whose partial tag matches, per config
                pblock = ptags[base[:, None] + np.arange(ways)]
                peq = pblock == wanted[rows][:, None, :]
                predicted = np.where(
                    peq.any(axis=1),
                    peq.argmax(axis=1),
                    pref[rows][:, None],
                )
            if cand_matrix is not None:
                # Clamp to the candidate set: position of the predicted
                # way among the candidates, else candidate 0.
                ceq = cand_matrix[rows][:, :, None] == predicted[:, None, :]
                in_cand = ceq.any(axis=1)
                pos_pred = ceq.argmax(axis=1)
                predicted = np.where(
                    in_cand, predicted, cand_matrix[rows, 0][:, None]
                )
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
            correct[rows] = hit_on_pred
        hit[rows] = found
        serialized_out[rows] = serialized
        if transfers_out is not None:
            transfers_out[rows] = transfers
        # -- hit-side state ------------------------------------------------
        if pred == "mru" and found.any():
            rr, kk = np.nonzero(found)
            mru[row_sets[rr], kk] = way_phys[rr, kk]
        # -- miss fill (pair space: one entry per missing (row, config)) ---
        rr, kk = np.nonzero(~found)
        if not len(rr):
            return
        miss_rows = rows[rr]
        base_p = base[rr]
        if steer == "direct":
            install_p = cand_matrix[miss_rows, 0]
        elif steer == "all":
            sets_p = row_sets[rr]
            u = mix64_array(
                seed_pairs(repl_seeds, miss_rows, kk) + repl_count[sets_p, kk]
            )
            repl_count[sets_p, kk] += 1
            install_p = (u % _U64(ways)).astype(np.int64)
        else:  # pws / sws: the PIP coin over the candidate set
            pref_p = pref[miss_rows]
            if m == 1:
                install_p = pref_p
            else:
                # Sequential draws of one stream: u1 at counter c, u2 at
                # c + 1; a config's counter advances once per miss and
                # once more per spill, exactly as the scalar streams.
                # Only miss pairs consume draws, so only they compute.
                sets_p = row_sets[rr]
                seeds_p = seed_pairs(steer_seeds, miss_rows, kk)
                counter = steer_count[sets_p, kk]
                u1 = mix64_array(seeds_p + counter)
                spill = ~(
                    (u1.astype(np.float64) / two_pow_64) < pip_arr[kk]
                )
                u2 = mix64_array(seeds_p + counter + _U64(1))
                steer_count[sets_p, kk] += spill + _U64(1)
                if steer == "pws":
                    alt = (u2 % _U64(ways - 1)).astype(np.int64)
                    install_p = np.where(
                        spill, alt + (alt >= pref_p), pref_p
                    )
                else:
                    alt = (u2 % _U64(m - 1)).astype(np.int64)
                    alt_way = cand_matrix[miss_rows, 1 + alt]
                    install_p = np.where(spill, alt_way, pref_p)
        slots = (base_p + install_p) * K + kk
        victim_dirty[miss_rows, kk] = dirty_flat[slots] != 0
        tags_flat[slots] = tags[miss_rows]
        dirty_flat[slots] = 0
        if pred == "mru":
            mru[row_sets[rr], kk] = install_p
        elif pred == "ptag":
            # on_evict zeroes the slot, on_install overwrites it.
            ptags_flat[slots] = wanted[miss_rows, kk]

    def step_writebacks(rows):
        row_tags = tags[rows]
        base = slot0[rows]
        found, way_pos, way_phys = scan(rows, row_tags, base)
        if not p0.dcp_exact:
            # No way information: probe the candidate ways in order.
            wb_probes[rows] = np.where(found, way_pos + 1, m)
        wb_absorbed[rows] = found
        rr, kk = np.nonzero(found)
        if len(rr):
            dirty_flat[(base[rr] + way_phys[rr, kk]) * K + kk] = 1

    for read_rows, wb_rows in steps:
        if len(read_rows):
            step_reads(read_rows)
        if len(wb_rows):
            step_writebacks(wb_rows)
    return decode()


def drive_fused(
    runs: Sequence[FusedRun], stream, geometry
) -> List[Tuple[CacheStats, Optional[PhaseSeries]]]:
    """Drive K same-signature runs over one stream in one fused pass.

    Returns ``(stats, phases)`` per run, in order, each bit-identical
    to a solo :class:`~repro.sim.engines.vector.VectorEngine` drive of
    that run's cache: the shared stream arrays come from the same
    per-trace memo, and each decoded outcome goes through the
    single-config reductions unchanged. ``K == 1`` is accepted (it
    degenerates to a solo drive through the 2-D code path) but callers
    should prefer the plain engine there.
    """
    global _FUSED_PASSES, _FUSED_CONFIGS
    if not runs:
        return []
    plans = [run.plan for run in runs]
    sets, tags, writes, steps = _stream_arrays(stream, geometry)
    if len(runs) == 1:
        outs = [_simulate(plans[0], sets, tags, writes, steps)]
    else:
        outs = _simulate_fused(plans, sets, tags, writes, steps)
        _FUSED_PASSES += 1
        _FUSED_CONFIGS += len(runs)
    results = []
    for run, out in zip(runs, outs):
        stats = _window_stats(run.plan, writes, out, run.warm, len(sets))
        phases = None
        if run.epoch is not None:
            phases = _phase_series(
                run.plan, writes, out, run.segments, run.epoch, None
            )
        results.append((stats, phases))
    return results


__all__ = [
    "FusedRun",
    "drive_fused",
    "fused_pass_count",
    "fusion_plan",
    "plan_signature",
]
