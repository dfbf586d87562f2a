"""Table IV: workload characteristics.

Reports, for each rate-mode workload: catalog MPKI and footprint (the
calibration inputs) plus the *measured* idealized 8-way potential
speedup — the reproduction's analogue of the paper's "8-Way Potential
Speedup" column.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import speedups_vs_baseline
from repro.utils.tables import format_table
from repro.workloads.spec import get_workload, rate_mode_specs


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    rate_names = [s.name for s in rate_mode_specs()]
    settings = replace(
        settings,
        suite=[w for w in settings.suite if w in rate_names] or rate_names,
    )
    results = run_matrix(settings, {
        "direct": baseline_design(),
        "ideal8": AccordDesign(kind="ideal", ways=8),
    })
    speedups = speedups_vs_baseline(results["ideal8"], results["direct"])

    rows = []
    for name in settings.suite:
        spec = get_workload(name)
        footprint_gb = spec.footprint_bytes / (1024**3)
        rows.append(
            [
                spec.suite,
                name,
                f"{spec.mpki:.1f}",
                f"{footprint_gb:.2f}GB" if footprint_gb >= 1 else
                f"{spec.footprint_bytes // (1024**2)}MB",
                f"{speedups[name]:.2f}",
                f"{spec.potential:.2f}",
            ]
        )
    return format_table(
        ["suite", "workload", "L3 MPKI", "footprint",
         "measured 8-way potential", "paper potential"],
        rows,
        title="Table IV: workload characteristics",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
