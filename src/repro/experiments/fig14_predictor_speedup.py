"""Figure 14: per-workload speedup of prior way predictors vs ACCORD
(2-way cache, over direct-mapped).

Expected shape: CA-cache loses on bandwidth (swaps) even where
associativity does not help; MRU and partial-tag perform well but need
megabytes of SRAM; ACCORD matches them with 320 bytes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import per_workload_table
from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import speedups_vs_baseline

DESIGNS = {
    "CA-Cache (0B)": AccordDesign(kind="ca", ways=1),
    "MRU Pred (4MB)": AccordDesign(kind="mru", ways=2),
    "Partial-Tag (32MB)": AccordDesign(kind="partial_tag", ways=2),
    "ACCORD (320B)": AccordDesign(kind="accord", ways=2),
}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    results = run_matrix(settings, {"direct": baseline_design(), **DESIGNS})
    columns = {
        label: speedups_vs_baseline(results[label], results["direct"])
        for label in DESIGNS
    }
    return per_workload_table(
        columns,
        title="Figure 14: speedup of way predictors and ACCORD (2-way)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
