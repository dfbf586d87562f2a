"""Figure 12: ACCORD across all 46 workloads.

Runs ACCORD 2-way and ACCORD SWS(8,2) over the extended suite
(29 SPEC + 10 mixes + 6 GAP + 1 HPC), including workloads that are not
sensitive to associativity. Expected shape: positive average speedup
and — the robustness claim — no workload with a meaningful slowdown.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis.report import per_workload_table
from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import speedups_vs_baseline
from repro.workloads.spec import extended_suite, main_suite

DESIGNS = {
    "ACCORD 2-way": AccordDesign(kind="accord", ways=2),
    "ACCORD SWS(8,2)": AccordDesign(kind="sws", ways=8, hashes=2),
}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    if settings.suite == main_suite():
        # The default suite widens to all 46 workloads; quick mode and
        # an explicit --workloads list are kept as given.
        settings = replace(settings, suite=extended_suite())
    results = run_matrix(settings, {"direct": baseline_design(), **DESIGNS})
    columns = {
        label: speedups_vs_baseline(results[label], results["direct"])
        for label in DESIGNS
    }
    worst = {
        label: min(per_wl.values()) for label, per_wl in columns.items()
    }
    table = per_workload_table(
        columns, title=f"Figure 12: speedup over {len(settings.suite)} workloads"
    )
    footer = " | ".join(f"{label} worst-case={v:.3f}" for label, v in worst.items())
    return table + "\n" + footer


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
