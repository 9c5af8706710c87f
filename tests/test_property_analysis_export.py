"""Property-based tests for the analysis and export helpers.

These modules are pure functions over numbers and strings, which makes them
ideal hypothesis targets: whatever an experiment produces, the rendered
tables and CDF points must stay internally consistent.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.analysis.report import markdown_table
from repro.metrics.stats import cdf_points


@given(
    headers=st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6),
                     min_size=1, max_size=5),
    num_rows=st.integers(min_value=0, max_value=5),
)
def test_markdown_table_row_and_column_counts(headers, num_rows) -> None:
    rows = [[f"r{i}c{j}" for j in range(len(headers))] for i in range(num_rows)]
    table = markdown_table(headers, rows)
    lines = table.splitlines()
    assert len(lines) == 2 + num_rows
    for line in lines:
        assert line.count("|") == len(headers) + 1


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200))
def test_cdf_points_reach_one_and_are_sorted(values) -> None:
    points = cdf_points(values)
    assert len(points) == len(values)
    xs = [value for value, _ in points]
    fractions = [fraction for _, fraction in points]
    assert xs == sorted(xs)
    assert fractions == sorted(fractions)
    assert abs(fractions[-1] - 1.0) < 1e-12
