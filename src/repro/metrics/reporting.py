"""Plain-text report rendering.

The CLI's study and campaign commands print the same rows/series the
paper's figures and prose contain; these helpers format them as aligned text
tables so a run's output can be eyeballed (and diffed) without any plotting
dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned, pipe-separated text table."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    def format_row(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    lines = [format_row(list(headers)), separator]
    lines.extend(format_row(row) for row in materialised)
    return "\n".join(lines)


def table_cells(rows: Sequence[Mapping[str, object]]) -> Tuple[List[str], List[List[object]]]:
    """Homogeneous row dictionaries as ``(headers, cell rows)``.

    The one rows → table adapter: columns follow the first row's key order,
    which is why row key order is an export contract everywhere.
    """
    headers = list(rows[0].keys()) if rows else []
    return headers, [[row[header] for header in headers] for row in rows]


def rows_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Row dictionaries as an aligned text table (floats to four decimals)."""
    if not rows:
        return "(no rows)"
    headers, body = table_cells(rows)
    return render_table(
        headers,
        [[f"{cell:.4f}" if isinstance(cell, float) else str(cell) for cell in cells]
         for cells in body],
    )
