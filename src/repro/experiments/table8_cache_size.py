"""Table VIII: ACCORD speedup vs DRAM-cache size.

Sweeps the (scaled) cache size over the equivalents of 1/2/4/8 GB while
keeping workload footprints pinned at the default (4GB-equivalent)
scale, so smaller caches see more pressure. Expected shape: ACCORD's
speedup shrinks as the cache grows (more of the footprint fits, less
room for improvement).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.params.system import GRID_SCALE
from repro.sim.runner import gmean_speedup
from repro.utils.tables import format_table

SIZES_GB = (1.0, 2.0, 4.0, 8.0)


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    # Every size's baseline comes first, so the direct cells generate
    # each (size, workload) trace before an ACCORD cell asks for it.
    matrix = {}
    for kind, design in (
        ("direct", baseline_design()),
        ("accord", AccordDesign(kind="sws", ways=8, hashes=2)),
    ):
        for size_gb in SIZES_GB:
            matrix[f"{kind}@{size_gb}"] = (design, GRID_SCALE * (size_gb / 4.0))
    results = run_matrix(settings, matrix, footprint_scale=GRID_SCALE)
    rows = []
    for size_gb in SIZES_GB:
        speedup = gmean_speedup(
            results[f"accord@{size_gb}"], results[f"direct@{size_gb}"]
        )
        rows.append([f"{size_gb:.1f}GB", f"{speedup:.3f}"])
    return format_table(
        ["cache size", "speedup from ACCORD SWS(8,2)"],
        rows,
        title="Table VIII: sensitivity to cache size",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
