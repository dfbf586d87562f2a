"""Figure 15: off-chip memory-system power, energy and EDP.

ACCORD 2-way and ACCORD SWS(8,2), normalized to the direct-mapped
baseline. Expected shape: similar DRAM-cache energy (bandwidth-neutral
design), lower main-memory energy via the higher hit-rate, a few
percent total energy saving and a double-digit EDP improvement.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.energy import EnergyModel
from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import geometric_mean
from repro.utils.tables import format_table

DESIGNS = {
    "ACCORD 2-way": AccordDesign(kind="accord", ways=2),
    "ACCORD SWS(8,2)": AccordDesign(kind="sws", ways=8, hashes=2),
}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    results = run_matrix(settings, {"direct": baseline_design(), **DESIGNS})
    base_results = results["direct"]
    model = EnergyModel()

    base_reports = {
        wl: model.evaluate(r.stats, r.runtime_ns) for wl, r in base_results.items()
    }

    rows = []
    for label in DESIGNS:
        ratios = {"speedup": [], "power": [], "energy": [], "edp": []}
        for wl, result in results[label].items():
            report = model.evaluate(result.stats, result.runtime_ns)
            relative = report.relative_to(base_reports[wl])
            for key in ratios:
                ratios[key].append(relative[key])
        rows.append(
            [label]
            + [f"{geometric_mean(ratios[k]):.3f}" for k in
               ("speedup", "power", "energy", "edp")]
        )
    return format_table(
        ["design", "speedup", "power", "energy", "EDP"],
        rows,
        title="Figure 15: memory-system energy (normalized to direct-mapped)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
