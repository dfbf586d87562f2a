"""Fused multi-config sweeps: K same-trace configs in one vector pass.

A parameter sweep evaluates many configs over one trace, and for the
vectorizable designs most of the vector kernel's work is
*config-independent*: the sorted step plan, the tag hashes and
preferred ways, the SWS candidate matrix, and — dominating the runtime
— the per-rank Python loop dispatching a handful of numpy ops over
small row groups. The kernel (:func:`repro.sim.engines.vector._simulate`)
therefore takes a config axis, and this module is its sweep-facing
API: configs whose kernel plans share a :func:`plan_signature` run as
one pass, which costs roughly one config's dispatch overhead for K
configs' worth of work.

What may differ inside one fused group is exactly the per-config data
the kernel parameterizes per row of the config axis: the PIP spill
probability, the counter-based RNG stream bases (functions of the
config seed), the partial-tag layout, and the per-hit replacement
transfer charge. Everything that shapes the *control flow* — lookup
flow, steering family, predictor kind, replacement kind (and SRRIP's
counter range), way count, set count, hash count, DCP exactness — is
part of the signature and therefore shared.

A solo :class:`~repro.sim.engines.vector.VectorEngine` drive is the
same kernel at K = 1, and each member's outcome goes through the same
reductions, so each member's :class:`~repro.sim.stats.CacheStats` and
:class:`~repro.sim.phases.PhaseSeries` are bit-identical to its own
solo drive and to the per-access reference loop (asserted by
``tests/test_multi.py``). Designs the vector kernel declines fall back
to sequential per-config drives in :func:`repro.exec.batching.run_batch`
— still sharing the trace bytes and the step plan, just not the pass.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.engines.base import Segment
from repro.sim.engines.vector import (
    _Plan,
    _build_plan,
    _phase_series,
    _simulate,
    _stream_arrays,
    _window_stats,
)
from repro.sim.phases import PhaseSeries
from repro.sim.stats import CacheStats

#: Process-local count of fused kernel passes (each covering K >= 2
#: configs); exposed for the batching tests and ``profile`` output.
_FUSED_PASSES = 0
_FUSED_CONFIGS = 0


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
    layout, the per-hit replacement transfer charge) become per-config
    data.
    """
    return (
        plan.flow, plan.steer, plan.pred, plan.repl, plan.rrpv_max,
        plan.ways, plan.num_sets, plan.hashes, plan.dcp_exact,
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


def drive_fused(
    runs: Sequence[FusedRun], stream, geometry
) -> List[Tuple[CacheStats, Optional[PhaseSeries]]]:
    """Drive K same-signature runs over one stream in one kernel pass.

    Returns ``(stats, phases)`` per run, in order, each bit-identical
    to a solo :class:`~repro.sim.engines.vector.VectorEngine` drive of
    that run's cache: the shared stream arrays come from the same
    per-trace memo, and each decoded outcome goes through the
    single-config reductions unchanged. ``K == 1`` is accepted but is
    not counted as a fused pass.
    """
    global _FUSED_PASSES, _FUSED_CONFIGS
    if not runs:
        return []
    plans = [run.plan for run in runs]
    signature = plan_signature(plans[0])
    if any(plan_signature(p) != signature for p in plans[1:]):
        raise SimulationError(
            "fused drive requires plans with identical signatures"
        )
    sets, tags, writes, steps, compact = _stream_arrays(stream, geometry)
    outs = _simulate(plans, sets, tags, writes, steps, compact)
    if len(runs) > 1:
        _FUSED_PASSES += 1
        _FUSED_CONFIGS += len(runs)
    results = []
    for run, out in zip(runs, outs):
        predicted = run.plan.flow == "predicted"
        stats = _window_stats(
            predicted, writes, out, run.warm, len(sets),
            run.plan.update_transfers,
        )
        phases = None
        if run.epoch is not None:
            phases = _phase_series(
                predicted, writes, out, run.segments, run.epoch, None
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
