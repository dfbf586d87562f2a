"""Plain-text table rendering for experiment reports.

The experiment harness prints results in the same row/column layout as
the paper's tables so paper-vs-measured comparison is a visual diff.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned ASCII table.

    ``rows`` may contain any mix of strings and numbers; floats are
    rendered with three decimals.
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def format_percent(value: float, digits: int = 1) -> str:
    """Format a ratio in [0, 1] as a percentage string like '74.2%'."""
    return f"{100.0 * value:.{digits}f}%"
