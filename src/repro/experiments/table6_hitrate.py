"""Table VI: hit-rate impact of way steering.

Direct-mapped vs unbiased 2-way vs PWS vs GWS vs PWS+GWS. Expected
shape: GWS retains the 2-way hit-rate (it only coarsens replacement
granularity); PWS trades a small amount of hit-rate for predictability;
PWS+GWS sits between PWS and the unbiased 2-way cache.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import mean_hit_rate
from repro.utils.tables import format_percent, format_table

DESIGNS = {
    "Direct-mapped": baseline_design(),
    "2-Way Rand": AccordDesign(kind="unbiased", ways=2),
    "PWS": AccordDesign(kind="pws", ways=2),
    "GWS": AccordDesign(kind="gws", ways=2),
    "PWS+GWS": AccordDesign(kind="accord", ways=2),
}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    results = run_matrix(settings, DESIGNS)
    row = [format_percent(mean_hit_rate(results[label])) for label in DESIGNS]
    return format_table(
        list(DESIGNS),
        [row],
        title="Table VI: mean hit-rate under way steering (Amean)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
