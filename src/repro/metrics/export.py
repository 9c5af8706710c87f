"""Result export: CSV / JSON dumps and text CDF rendering.

The CLI's study and campaign commands print their tables to the console;
this module writes the same data to files so a reproduction run can be
archived, diffed against a previous run, or post-processed with external
plotting tools.  Everything uses only the standard library (``csv``/``json``)
— no plotting dependency.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.metrics.records import FlowRecord
from repro.metrics.stats import cdf_points

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (collector -> net -> obs -> here)
    from repro.metrics.collector import ExperimentMetrics

PathLike = Union[str, Path]


def _flow_record_fields() -> Tuple[str, ...]:
    names = [item.name for item in fields(FlowRecord)]
    after = names.index("sender_completion_time") + 1
    return (*names[:after], "completion_time_ms", *names[after:])


#: Column order used for per-flow CSV exports: every :class:`FlowRecord`
#: field in declaration order, with the derived ``completion_time_ms`` after
#: ``sender_completion_time``.
FLOW_RECORD_FIELDS = _flow_record_fields()


def flow_record_row(record: FlowRecord) -> Dict[str, object]:
    """One CSV row for a flow record (completion time pre-converted to ms)."""
    return {name: getattr(record, name) for name in FLOW_RECORD_FIELDS}


def write_flow_records_csv(records: Iterable[FlowRecord], path: PathLike) -> Path:
    """Write one CSV row per flow record and return the path written."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with destination.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(FLOW_RECORD_FIELDS))
        writer.writeheader()
        for record in records:
            writer.writerow(flow_record_row(record))
    return destination


def dumps_deterministic(payload: object, indent: Optional[int] = 2) -> str:
    """The deterministic JSON text of ``payload``, trailing newline included.

    The repository-wide JSON emission policy, shared by metric exports,
    benchmark artifacts and the run store: keys sorted, ``allow_nan=False``
    (NaN/Infinity have no portable JSON form), floats rendered by CPython's
    shortest round-trip ``repr`` (a pure function of the IEEE-754 value,
    identical across platforms), and exactly one trailing newline.  Equal
    payloads therefore always serialise to equal bytes, which is what makes
    artifacts diffable and byte-comparable across runs and machines.
    """
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False) + "\n"


def write_json(payload: object, path: PathLike) -> Path:
    """Write ``payload`` with :func:`dumps_deterministic` and return the path."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(dumps_deterministic(payload))
    return destination


def write_summary_json(
    metrics: ExperimentMetrics, path: PathLike, extra: Optional[Dict[str, object]] = None
) -> Path:
    """Write the headline summary (plus optional provenance) as JSON."""
    payload: Dict[str, object] = dict(metrics.summary_dict())
    if extra:
        payload.update(extra)
    return write_json(payload, path)


def write_series_csv(
    rows: Sequence[Dict[str, object]], path: PathLike, fieldnames: Optional[Sequence[str]] = None
) -> Path:
    """Write an arbitrary list of homogeneous dictionaries as CSV."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        destination.write_text("")
        return destination
    names = list(fieldnames) if fieldnames is not None else list(rows[0].keys())
    with destination.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=names)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return destination


# ---------------------------------------------------------------------------
# Text CDF rendering (a stand-in for the paper's scatter/CDF plots)
# ---------------------------------------------------------------------------


def ascii_cdf(
    values: Sequence[float],
    width: int = 60,
    height: int = 12,
    label: str = "value",
) -> str:
    """Render the empirical CDF of ``values`` as a small ASCII chart.

    Useful for eyeballing the Figure 1(b)/(c) tails directly in a terminal
    without any plotting stack.  Returns an empty string for empty input.
    """
    if width < 10 or height < 4:
        raise ValueError("width must be >= 10 and height >= 4")
    points = cdf_points(values)
    if not points:
        return ""
    low = points[0][0]
    high = points[-1][0]
    span = max(high - low, 1e-12)
    grid = [[" "] * width for _ in range(height)]
    for value, fraction in points:
        column = int((value - low) / span * (width - 1))
        row = int((1.0 - fraction) * (height - 1))
        grid[row][column] = "*"
    lines = ["1.0 |" + "".join(grid[0])]
    for row in range(1, height - 1):
        lines.append("    |" + "".join(grid[row]))
    lines.append("0.0 |" + "".join(grid[height - 1]))
    lines.append("    +" + "-" * width)
    lines.append(f"     {label}: {low:.3g} .. {high:.3g}")
    return "\n".join(lines)
