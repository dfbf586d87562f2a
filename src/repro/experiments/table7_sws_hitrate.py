"""Table VII: hit-rate of SWS designs.

Direct-mapped, 2-way ACCORD, SWS(4,2), SWS(8,2) and a full 8-way cache.
Expected shape: SWS(8,2) sits between 2-way ACCORD and 8-way, at a
2-lookup miss-confirmation cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import mean_hit_rate
from repro.utils.tables import format_percent, format_table

DESIGNS = {
    "Direct-mapped": baseline_design(),
    "ACCORD (2-way)": AccordDesign(kind="accord", ways=2),
    "SWS (4,2-way)": AccordDesign(kind="sws", ways=4, hashes=2),
    "SWS (8,2-way)": AccordDesign(kind="sws", ways=8, hashes=2),
    "8-Way": AccordDesign(kind="ideal", ways=8),
}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    results = run_matrix(settings, DESIGNS)
    row = [format_percent(mean_hit_rate(results[label])) for label in DESIGNS]
    return format_table(
        list(DESIGNS),
        [row],
        title="Table VII: hit-rate of different ACCORD designs",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
