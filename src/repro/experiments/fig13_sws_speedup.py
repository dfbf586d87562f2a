"""Figure 13: per-workload speedup of ACCORD extended with SWS.

ACCORD 2-way vs ACCORD SWS(4,2) vs ACCORD SWS(8,2), over direct-mapped.
Expected shape: SWS(8,2) gives the highest average speedup; workloads
with near-100% hit-rate (sphinx) may lose slightly from the extra
bandwidth/row-buffer pressure of wider sets.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import per_workload_table
from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import speedups_vs_baseline

DESIGNS = {
    "ACCORD 2-way": AccordDesign(kind="accord", ways=2),
    "ACCORD SWS(4,2)": AccordDesign(kind="sws", ways=4, hashes=2),
    "ACCORD SWS(8,2)": AccordDesign(kind="sws", ways=8, hashes=2),
}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    results = run_matrix(settings, {"direct": baseline_design(), **DESIGNS})
    columns = {
        label: speedups_vs_baseline(results[label], results["direct"])
        for label in DESIGNS
    }
    return per_workload_table(
        columns, title="Figure 13: speedup from extending ACCORD using SWS"
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
