"""Table II: accuracy and storage of conventional way predictors.

Storage is computed for the paper's unscaled 4GB geometry (MRU 4MB,
partial-tag 32MB); accuracy is measured on the scaled suite at 2/4/8
ways.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.storage import predictor_storage_bytes
from repro.cache.geometry import CacheGeometry
from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, parse_args, run_matrix
from repro.sim.runner import mean_prediction_accuracy
from repro.utils.tables import format_percent, format_table

PAPER_CAPACITY = 4 * 1024 * 1024 * 1024
PREDICTORS = ("unbiased", "mru", "partial_tag")
LABELS = {"unbiased": "Rand Pred", "mru": "MRU Pred", "partial_tag": "Partial-Tag"}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    results = run_matrix(settings, {
        f"{kind}{ways}": AccordDesign(kind=kind, ways=ways)
        for kind in PREDICTORS
        for ways in (2, 4, 8)
    })

    storage_row = ["Storage (4GB cache)"]
    for kind in PREDICTORS:
        geometry = CacheGeometry(PAPER_CAPACITY, 2)
        nbytes = predictor_storage_bytes(
            {"unbiased": "rand"}.get(kind, kind), geometry
        )
        storage_row.append(
            "0B" if nbytes == 0 else f"{nbytes // (1024 * 1024)}MB"
        )

    rows = [storage_row]
    for ways in (2, 4, 8):
        rows.append(
            [f"{ways}-way accuracy"]
            + [format_percent(mean_prediction_accuracy(results[f"{kind}{ways}"]))
               for kind in PREDICTORS]
        )
    return format_table(
        ["", *(LABELS[p] for p in PREDICTORS)],
        rows,
        title="Table II: accuracy and storage of way predictors (4GB cache)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
