"""Figure 10: per-workload speedup of 2-way designs over direct-mapped.

Parallel lookup, serial lookup, PWS, GWS, PWS+GWS (ACCORD) and perfect
way-prediction. Expected shape: parallel wastes bandwidth; serial is
slightly better; PWS+GWS approaches perfect-WP; GWS alone can
underperform on low-spatial-locality workloads.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import per_workload_table
from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import speedups_vs_baseline

DESIGNS = {
    "Parallel": AccordDesign(kind="parallel", ways=2),
    "Serial": AccordDesign(kind="serial", ways=2),
    "PWS": AccordDesign(kind="pws", ways=2),
    "GWS": AccordDesign(kind="gws", ways=2),
    "PWS+GWS": AccordDesign(kind="accord", ways=2),
    "Perfect WP": AccordDesign(kind="perfect", ways=2),
}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    results = run_matrix(settings, {"direct": baseline_design(), **DESIGNS})
    columns = {
        label: speedups_vs_baseline(results[label], results["direct"])
        for label in DESIGNS
    }
    return per_workload_table(
        columns, title="Figure 10: speedup from a 2-way DRAM cache"
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
