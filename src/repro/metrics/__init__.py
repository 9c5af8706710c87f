"""Measurement records, aggregation and reporting."""

from repro.metrics.collector import ExperimentMetrics
from repro.metrics.export import (
    ascii_cdf,
    cdf_comparison_rows,
    write_cdf_csv,
    write_flow_records_csv,
    write_series_csv,
    write_summary_json,
)
from repro.metrics.records import FlowRecord
from repro.metrics.reporting import (
    comparison_table,
    format_milliseconds,
    format_rate,
    format_throughput_mbps,
    render_table,
    rows_table,
    table_cells,
)
from repro.metrics.stats import (
    DistributionSummary,
    cdf_points,
    fraction_above,
    jains_fairness_index,
    percentile,
    summarize,
)
from repro.metrics.timeseries import (
    OccupancySummary,
    QueueOccupancySampler,
    QueueSample,
)

__all__ = [
    "ExperimentMetrics",
    "FlowRecord",
    "ascii_cdf",
    "cdf_comparison_rows",
    "write_cdf_csv",
    "write_flow_records_csv",
    "write_series_csv",
    "write_summary_json",
    "OccupancySummary",
    "QueueOccupancySampler",
    "QueueSample",
    "comparison_table",
    "format_milliseconds",
    "format_rate",
    "format_throughput_mbps",
    "render_table",
    "rows_table",
    "table_cells",
    "DistributionSummary",
    "cdf_points",
    "fraction_above",
    "jains_fairness_index",
    "percentile",
    "summarize",
]
