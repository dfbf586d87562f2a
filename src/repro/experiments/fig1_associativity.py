"""Figure 1: impact of associativity on hit-rate and performance.

(a) hit-rate of 1/2/4/8-way caches; (b) speedup of the *parallel
lookup* implementation (streams the whole set — bandwidth hungry);
(c) speedup of an *idealized* set-associative design with the latency
and bandwidth of a direct-mapped cache.

Expected shape: hit-rate rises with ways; parallel lookup's speedup
degrades as ways grow despite the better hit-rate; idealized
associativity shows the performance that motivates ACCORD.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import gmean_speedup, mean_hit_rate
from repro.utils.tables import format_percent, format_table

WAYS = (1, 2, 4, 8)


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    matrix = {"direct": baseline_design()}
    for ways in WAYS[1:]:
        matrix[f"parallel{ways}"] = AccordDesign(kind="parallel", ways=ways)
        matrix[f"ideal{ways}"] = AccordDesign(kind="ideal", ways=ways)
    results = run_matrix(settings, matrix)
    direct = results["direct"]

    rows = [["1-way", format_percent(mean_hit_rate(direct)), "1.000", "1.000"]]
    for ways in WAYS[1:]:
        rows.append(
            [
                f"{ways}-way",
                format_percent(mean_hit_rate(results[f"ideal{ways}"])),
                f"{gmean_speedup(results[f'parallel{ways}'], direct):.3f}",
                f"{gmean_speedup(results[f'ideal{ways}'], direct):.3f}",
            ]
        )
    return format_table(
        ["organization", "hit-rate", "speedup (parallel)", "speedup (idealized)"],
        rows,
        title="Figure 1: associativity vs hit-rate and performance",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
