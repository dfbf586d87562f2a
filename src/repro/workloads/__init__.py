"""Workload catalog and synthetic trace generation.

The paper evaluates SPEC2006 (rate mode), GAP graph analytics on real
graphs, HPC (nekbone) and SPEC mixes. Without the proprietary binaries
and datasets, each workload is reproduced as a parameterized synthetic
request stream calibrated to its Table IV characteristics (MPKI,
footprint, associativity sensitivity) and its qualitative behaviours
(spatial locality for GWS, conflict thrash for associativity, sparse
pointer chasing for mcf/graphs). See DESIGN.md §2.
"""

from repro.workloads.spec import (
    EXTENDED_SUITE,
    MAIN_SUITE,
    WorkloadSpec,
    get_workload,
    main_suite,
    extended_suite,
)
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.mixes import MIX_RECIPES, build_mix_trace
from repro.workloads.cyclic import cyclic_trace

__all__ = [
    "WorkloadSpec",
    "MAIN_SUITE",
    "EXTENDED_SUITE",
    "get_workload",
    "main_suite",
    "extended_suite",
    "SyntheticWorkload",
    "MIX_RECIPES",
    "build_mix_trace",
    "cyclic_trace",
]
