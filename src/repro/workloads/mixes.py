"""SPEC mix workloads (paper Section III-B).

The paper builds 10 mixed workloads from the 16 SPEC benchmarks with at
least 2 MPKI. We reproduce them by interleaving bursts from four member
generators per mix; each member occupies a disjoint address region
whose base is a multiple of the cache capacity, so the set-aliasing
structure of each member is preserved inside the shared cache.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import WorkloadError
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64
from repro.workloads.spec import get_workload
from repro.workloads.synthetic import SyntheticWorkload


MIX_RECIPES: Dict[str, List[str]] = {
    "mix1": ["soplex", "mcf", "libq", "sphinx"],
    "mix2": ["leslie", "omnet", "gcc", "milc"],
    "mix3": ["libq", "xalanc", "zeusmp", "mcf"],
    "mix4": ["wrf", "soplex", "milc", "omnet"],
    "mix5": ["gems", "gcc", "leslie", "astar"],
    "mix6": ["lbm", "mcf", "sphinx", "bzip2"],
    "mix7": ["bwaves", "libq", "xalanc", "wrf"],
    "mix8": ["milc", "soplex", "gems", "omnet"],
    "mix9": ["zeusmp", "lbm", "leslie", "astar"],
    "mix10": ["mcf", "bwaves", "gcc", "bzip2"],
}

_MEMBER_SPAN_MULTIPLIER = 1 << 16  # members sit 2^16 cache-capacities apart
_CHUNK = 64  # records per interleave burst


def build_mix_trace(
    mix_name: str,
    cache_capacity_bytes: int,
    num_accesses: int,
    seed: int = 1,
    scale: float = 1.0,
) -> Trace:
    """Interleave the mix's member workloads into one trace."""
    recipe = MIX_RECIPES.get(mix_name)
    if recipe is None:
        raise WorkloadError(f"unknown mix {mix_name!r}")
    rng = XorShift64(seed ^ 0x3175)
    members = []
    for index, member_name in enumerate(recipe):
        spec = get_workload(member_name)
        # Catalog footprints are 16-copy rate-mode totals (Table IV);
        # a mix runs ONE copy of each member per core group, so each
        # member's footprint is 1/16 of the catalog value before the
        # geometry scale is applied.
        spec = spec.scaled(scale / 16.0)
        base = index * _MEMBER_SPAN_MULTIPLIER * cache_capacity_bytes
        members.append(
            SyntheticWorkload(
                spec,
                cache_capacity_bytes,
                seed=rng.fork(index).getstate(),
                addr_base=base,
            )
        )

    # Generate per-member chunks and interleave burst-by-burst. Chunked
    # interleaving (64 requests at a time) approximates the fine-grained
    # multiplexing of simultaneously running cores.
    per_member = num_accesses // len(members)
    streams = [m.generate(per_member, name=f"{mix_name}:{m.spec.name}") for m in members]
    addrs = _interleave([s.numpy_addrs()[:per_member] for s in streams])
    writes = _interleave([s.numpy_writes()[:per_member] for s in streams])
    ipa = sum(s.instructions_per_access for s in streams) / len(streams)
    return Trace(name=mix_name, addrs=addrs, writes=writes,
                 instructions_per_access=ipa)


def _interleave(columns: List[np.ndarray]) -> np.ndarray:
    """Round-robin equal-length member columns in ``_CHUNK``-record
    chunks: member 0's first chunk, member 1's first chunk, ..., then
    each member's second chunk, and so on; the short tail chunks last."""
    stacked = np.stack(columns)  # (members, per_member)
    members, per_member = stacked.shape
    full = per_member - per_member % _CHUNK
    body = stacked[:, :full].reshape(members, -1, _CHUNK).transpose(1, 0, 2)
    return np.concatenate((body.reshape(-1), stacked[:, full:].reshape(-1)))
