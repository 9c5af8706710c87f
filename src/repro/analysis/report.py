"""Markdown report generation.

Plain markdown tables, the per-scenario delta table of a scenario matrix,
and the campaign report: each rendered from row dictionaries, so a
reproduction run regenerates its own report instead of the numbers being
transcribed by hand.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from repro.metrics.collector import CELL_METRIC_FIELDS
from repro.metrics.reporting import table_cells
from repro.metrics.stats import mean_ci95

#: How numeric cells are formatted by default.
_FLOAT_FORMAT = "{:.3f}"


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return _FLOAT_FORMAT.format(value)
    return str(value)


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A GitHub-flavoured markdown table."""
    lines = [
        "| " + " | ".join(str(header) for header in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_format_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def rows_markdown(rows: Sequence[Mapping[str, object]]) -> str:
    """Homogeneous row dictionaries as a markdown table (first row's key order)."""
    return markdown_table(*table_cells(rows))


def scenario_matrix_markdown(
    rows: Sequence[Mapping[str, object]],
    baseline_protocol: str = "tcp",
) -> str:
    """A per-scenario comparison table across transports, with deltas.

    ``rows`` are the dictionaries produced by
    :func:`repro.scenarios.runner.cell_rows`.  Within every scenario each
    protocol is compared against ``baseline_protocol`` on the three axes the
    paper's argument rests on: short-flow completion time, long-flow
    throughput, and retransmissions.  Fault drops (packets lost at a down
    interface, which bypass every queue counter) get their own column so
    link-failure scenarios do not under-report losses.  Delta cells show
    ``n/a`` when the scenario was not run with the baseline protocol (or for
    the baseline row itself).
    """
    headers = [
        "scenario",
        "protocol",
        "completion",
        "mean FCT (ms)",
        f"ΔFCT vs {baseline_protocol}",
        "p99 FCT (ms)",
        "retransmits",
        f"Δretx vs {baseline_protocol}",
        "fault drops",
        "long tput (Mbps)",
        f"Δtput vs {baseline_protocol}",
    ]
    baselines: Dict[object, Mapping[str, object]] = {
        row["scenario"]: row for row in rows if row["protocol"] == baseline_protocol
    }

    def _relative(value: float, base: float) -> str:
        if base == 0:
            return "inf" if value else "+0.0%"
        return f"{100 * (value - base) / base:+.1f}%"

    table_rows: List[List[object]] = []
    for row in rows:
        base = baselines.get(row["scenario"])
        if base is None or row["protocol"] == baseline_protocol:
            fct_delta = retx_delta = tput_delta = "n/a"
        else:
            fct_delta = _relative(float(row["mean_fct_ms"]), float(base["mean_fct_ms"]))
            retx_delta = f"{int(row['retransmits']) - int(base['retransmits']):+d}"
            tput_delta = _relative(
                float(row["long_tput_mbps"]), float(base["long_tput_mbps"])
            )
        table_rows.append(
            [
                row["scenario"],
                row["protocol"],
                f"{100 * float(row['completion_rate']):.1f}%",
                row["mean_fct_ms"],
                fct_delta,
                row["p99_fct_ms"],
                row["retransmits"],
                retx_delta,
                row.get("fault_drops", 0),
                row["long_tput_mbps"],
                tput_delta,
            ]
        )
    return markdown_table(headers, table_rows)


def replication_summary_rows(
    rows: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """Across-replication aggregation of per-cell campaign rows.

    Groups ``rows`` (campaign cells' dictionaries from
    :func:`repro.scenarios.runner.cell_rows`) by
    (``scenario``, ``protocol``, ``params``) in first-appearance order —
    which, for campaign rows, is declared cell order — and reports the
    sample mean and 95% confidence half-width (see
    :func:`repro.metrics.stats.mean_ci95`; 0.0 for a single replication)
    of every metric in :data:`repro.metrics.collector.CELL_METRIC_FIELDS`.

    Key order — ``scenario``, ``protocol``, ``params``, ``replications``,
    then a ``<metric>_mean`` / ``<metric>_ci95`` pair per metric — is
    insertion-stable and part of the public contract (CSV headers and
    report tables derive from it).
    """
    groups: Dict[tuple, List[Mapping[str, object]]] = {}
    for row in rows:
        coordinate = (row["scenario"], row["protocol"], row.get("params", ""))
        groups.setdefault(coordinate, []).append(row)
    summary_rows: List[Dict[str, object]] = []
    for (scenario, protocol, params), members in groups.items():
        summary: Dict[str, object] = {
            "scenario": scenario,
            "protocol": protocol,
            "params": params,
            "replications": len(members),
        }
        for metric in CELL_METRIC_FIELDS:
            mean, half_width = mean_ci95(float(member[metric]) for member in members)
            summary[f"{metric}_mean"] = mean
            summary[f"{metric}_ci95"] = half_width
        summary_rows.append(summary)
    return summary_rows


def campaign_report_markdown(
    spec: object,
    rows: Sequence[Mapping[str, object]],
    baseline_protocol: str = "tcp",
) -> str:
    """The full markdown report of one campaign, from per-cell rows.

    ``spec`` is a :class:`repro.campaigns.spec.CampaignSpec` (duck-typed
    here to keep this module free of a campaigns dependency); ``rows`` are
    the cells' dictionaries from :func:`repro.scenarios.runner.cell_rows`, in
    declared cell order.

    The document is **deterministic**: it contains only the declared grid
    and the simulated numbers — no timestamps, wall-clock, or cache
    hit/miss counts — so regenerating it from the same artifacts always
    yields identical bytes.  The per-scenario delta table is included when
    it is well-defined: the baseline protocol is in the grid and every
    scenario/protocol pair maps to exactly one row (no sweeps, single
    replication).
    """
    lines: List[str] = [f"# Campaign report — {spec.name}", ""]
    lines.append(f"* **Scale:** {spec.scale} (seed {spec.seed})")
    lines.append("* **Scenarios:** " + ", ".join(spec.scenarios))
    lines.append("* **Transports:** " + ", ".join(spec.protocols))
    lines.append(f"* **Replications:** {spec.replications}")
    if spec.sweeps:
        axes = "; ".join(
            f"{name} ∈ [{', '.join(str(value) for value in values)}]"
            for name, values in spec.sweeps
        )
        lines.append(f"* **Sweeps:** {axes}")
    lines.append(f"* **Cells:** {len(rows)}")
    lines.extend(["", "## Per-cell results", ""])
    if rows:
        lines.append(rows_markdown(rows))
    else:
        lines.append("_No cells declared._")
    if spec.replications > 1 and rows:
        # Replicated campaigns additionally get the across-replication view:
        # one row per cell coordinate with mean ± 95% CI columns.
        lines.extend(["", "## Across replications (mean ± 95% CI)", ""])
        lines.append(rows_markdown(replication_summary_rows(rows)))
    deltas_apply = (
        baseline_protocol in spec.protocols
        and spec.replications == 1
        and not spec.sweeps
        and rows
    )
    if deltas_apply:
        lines.extend(["", f"## Per-scenario deltas vs {baseline_protocol}", ""])
        lines.append(scenario_matrix_markdown(rows, baseline_protocol=baseline_protocol))
    lines.append("")
    return "\n".join(lines)
