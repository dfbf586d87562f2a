"""Table X: comparison of way predictors (CA-cache, MRU, Partial-Tag,
ACCORD) — accuracy at 2/4/8 ways plus paper-scale storage.

CA-cache is direct-mapped with two indices, so it has no 4/8-way
variant (N/A). ACCORD's accuracy is roughly flat across associativity
because SWS keeps the effective choice binary.
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


def _design_for(column: str, ways: int) -> Optional[AccordDesign]:
    if column == "CA-Cache":
        return AccordDesign(kind="ca", ways=1) if ways == 2 else None
    if column == "MRU Pred":
        return AccordDesign(kind="mru", ways=ways)
    if column == "Partial-Tag":
        return AccordDesign(kind="partial_tag", ways=ways)
    if column == "ACCORD":
        if ways == 2:
            return AccordDesign(kind="accord", ways=2)
        return AccordDesign(kind="sws", ways=ways, hashes=2)
    raise ValueError(column)


COLUMNS = ("CA-Cache", "MRU Pred", "Partial-Tag", "ACCORD")
_STORAGE_KEYS = {"CA-Cache": "ca", "MRU Pred": "mru",
                 "Partial-Tag": "partial_tag", "ACCORD": "accord"}


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    matrix = {}
    for column in COLUMNS:
        for ways in (2, 4, 8):
            design = _design_for(column, ways)
            if design is not None:
                matrix[f"{column}:{ways}"] = design
    results = run_matrix(settings, matrix)

    storage_row = ["Storage"]
    for column in COLUMNS:
        geometry = CacheGeometry(PAPER_CAPACITY, 2)
        nbytes = predictor_storage_bytes(_STORAGE_KEYS[column], geometry)
        if nbytes == 0:
            storage_row.append("0MB")
        elif nbytes >= 1024 * 1024:
            storage_row.append(f"{nbytes // (1024 * 1024)}MB")
        else:
            storage_row.append(f"{nbytes} bytes")

    rows = [storage_row]
    for ways in (2, 4, 8):
        row = [f"Accuracy ({ways}-way)"]
        for column in COLUMNS:
            cell = results.get(f"{column}:{ways}")
            row.append("N/A" if cell is None else
                       format_percent(mean_prediction_accuracy(cell)))
        rows.append(row)
    return format_table(
        ["", *COLUMNS],
        rows,
        title="Table X: comparison of different way predictors",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
