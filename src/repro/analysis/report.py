"""Report formatting: paper-ordered per-workload tables.

The paper's per-workload figures (7, 10, 13, 14) list workloads in a
fixed order from least to most associativity-sensitive, with mixes and
the geometric mean at the end; reproducing that order makes visual
comparison against the paper direct.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.sim.runner import geometric_mean
from repro.sim.system import RunResult
from repro.utils.tables import format_table

FIGURE_WORKLOAD_ORDER: List[str] = [
    "milc", "sphinx", "nekbone", "cc_web", "pr_web", "mcf", "xalanc",
    "bc_twi", "pr_twi", "cc_twi", "omnet", "wrf", "zeusmp", "gcc",
    "libq", "leslie", "soplex", "mix1", "mix2", "mix3", "mix4",
]


def per_workload_table(
    columns: Dict[str, Dict[str, float]],
    title: str,
    value_format: str = "{:.3f}",
    gmean_row: bool = True,
) -> str:
    """Render {column -> {workload -> value}} as a paper-style table.

    Columns share a workload set; the final row is the geometric mean
    (the paper's aggregate for speedups; for rates the arithmetic mean
    is usually quoted — pass ``gmean_row=False`` and append your own).
    """
    if not columns:
        raise ValueError("no columns to render")
    names = list(columns)
    workloads: List[str] = []
    seen = set()
    for per_wl in columns.values():
        for wl in per_wl:
            if wl not in seen:
                seen.add(wl)
                workloads.append(wl)
    ordered = [w for w in FIGURE_WORKLOAD_ORDER if w in seen]
    ordered.extend(w for w in workloads if w not in FIGURE_WORKLOAD_ORDER)

    rows = []
    for wl in ordered:
        rows.append(
            [wl] + [value_format.format(columns[c].get(wl, float("nan"))) for c in names]
        )
    if gmean_row:
        gmeans = []
        for c in names:
            values = [v for v in columns[c].values() if v > 0]
            gmeans.append(value_format.format(geometric_mean(values)) if values else "-")
        rows.append(["Gmean"] + gmeans)
    return format_table(["workload"] + names, rows, title=title)


def collect(
    results: Dict[str, RunResult], metric: Callable[[RunResult], float]
) -> Dict[str, float]:
    """Apply a metric to every workload's result."""
    return {wl: metric(r) for wl, r in results.items()}
