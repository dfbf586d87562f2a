"""Figure 7: per-workload way-prediction accuracy for a 2-way cache.

Compares Rand Pred, PWS, GWS and PWS+GWS (ACCORD). Expected shape:
PWS ~= PIP (85%) everywhere; GWS near-perfect on high-spatial-locality
workloads (libq, nekbone) and weak on sparse ones (mcf, graph kernels);
PWS+GWS ~90% overall.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.report import per_workload_table, collect
from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, parse_args, run_matrix
from repro.sim.runner import mean_prediction_accuracy

DESIGNS = {
    "Rand Pred": AccordDesign(kind="unbiased", ways=2),
    "PWS": AccordDesign(kind="pws", ways=2),
    "GWS": AccordDesign(kind="gws", ways=2),
    "PWS+GWS": AccordDesign(kind="accord", ways=2),
}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    results = run_matrix(settings, DESIGNS)
    columns = {
        label: collect(results[label], lambda r: r.prediction_accuracy)
        for label in DESIGNS
    }
    return per_workload_table(
        columns,
        title="Figure 7: way-prediction accuracy (2-way cache)",
        gmean_row=False,
    ) + "\n" + " | ".join(
        f"{label} mean={mean_prediction_accuracy(results[label]):.3f}"
        for label in DESIGNS
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
