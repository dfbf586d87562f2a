"""CSV export of experiment data.

Each per-workload experiment produces series keyed by workload; this
module writes them in a tidy (long) CSV layout —
``workload,series,value`` — that any plotting tool ingests directly, so
the paper's bar charts can be regenerated outside this repo.
"""

from __future__ import annotations

import csv
import io
from typing import Dict

from repro.analysis.report import FIGURE_WORKLOAD_ORDER
from repro.errors import SimulationError


def series_to_csv(
    columns: Dict[str, Dict[str, float]],
    value_name: str = "value",
) -> str:
    """Render {series -> {workload -> value}} as tidy CSV text."""
    if not columns:
        raise SimulationError("no series to export")
    workloads = []
    seen = set()
    for per_wl in columns.values():
        for workload in per_wl:
            if workload not in seen:
                seen.add(workload)
                workloads.append(workload)
    ordered = [w for w in FIGURE_WORKLOAD_ORDER if w in seen]
    ordered.extend(w for w in workloads if w not in FIGURE_WORKLOAD_ORDER)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["workload", "series", value_name])
    for workload in ordered:
        for series, per_wl in columns.items():
            if workload in per_wl:
                writer.writerow([workload, series, repr(per_wl[workload])])
    return buffer.getvalue()


def save_series_csv(
    columns: Dict[str, Dict[str, float]],
    path: str,
    value_name: str = "value",
) -> None:
    """Write :func:`series_to_csv` output to a file."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(series_to_csv(columns, value_name))


# Columns of the phase-resolved CSV, in order. Raw counters come first,
# then the derived per-epoch rates.
PHASE_CSV_COLUMNS = (
    "series", "workload", "epoch_index", "start_access", "accesses",
    "hits", "predicted_hits", "correct_predictions",
    "nvm_reads", "nvm_writes", "writebacks",
    "hit_rate", "prediction_accuracy",
)


def phases_to_csv(columns: Dict[str, Dict[str, "RunResult"]]) -> str:  # noqa: F821
    """Render phase-resolved runs as tidy CSV, one row per epoch.

    ``columns`` maps series label (usually a design name) -> workload ->
    :class:`~repro.sim.system.RunResult`. Runs without recorded phases
    (``--epoch-metrics`` off, or the CA-cache baseline) are skipped; if
    *no* run carries phases the export fails loudly rather than writing
    an empty file.
    """
    if not columns:
        raise SimulationError("no series to export")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(PHASE_CSV_COLUMNS)
    rows = 0
    for series, per_workload in columns.items():
        for workload, result in per_workload.items():
            phases = getattr(result, "phases", None)
            if phases is None:
                continue
            for sample in phases:
                writer.writerow([
                    series, workload, sample.index, sample.start_access,
                    sample.accesses, sample.hits, sample.predicted_hits,
                    sample.correct_predictions, sample.nvm_reads,
                    sample.nvm_writes, sample.writebacks,
                    repr(sample.hit_rate), repr(sample.prediction_accuracy),
                ])
                rows += 1
    if not rows:
        raise SimulationError(
            "no phase-resolved results to export (run with --epoch-metrics)"
        )
    return buffer.getvalue()


def save_phases_csv(
    columns: Dict[str, Dict[str, "RunResult"]], path: str  # noqa: F821
) -> None:
    """Write :func:`phases_to_csv` output to a file.

    Renders before opening so a failed export never truncates ``path``.
    """
    text = phases_to_csv(columns)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
