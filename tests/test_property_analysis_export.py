"""Property-based tests for the analysis and export helpers.

These modules are pure functions over numbers and strings, which makes them
ideal hypothesis targets: whatever summaries an experiment produces, the
comparison verdicts, regression checks and rendered tables must stay
internally consistent.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.analysis.compare import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    MetricComparison,
    compare_summaries,
    regression_check,
)
from repro.analysis.report import markdown_table, summary_comparison_markdown
from repro.metrics.stats import cdf_points

_FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_METRIC_NAMES = st.sampled_from(sorted(LOWER_IS_BETTER | HIGHER_IS_BETTER))


@given(metric=_METRIC_NAMES, baseline=_FINITE, candidate=_FINITE)
def test_direction_is_symmetric_under_swap(metric: str, baseline: float, candidate: float) -> None:
    """Swapping baseline and candidate flips better <-> worse (equal stays equal)."""
    forward = MetricComparison(metric, baseline, candidate).direction
    backward = MetricComparison(metric, candidate, baseline).direction
    if forward == "equal":
        assert backward == "equal"
    else:
        assert {forward, backward} == {"better", "worse"}


@given(
    summary=st.dictionaries(_METRIC_NAMES, _FINITE, min_size=1, max_size=6),
)
def test_identical_summaries_compare_equal_and_pass_any_tolerance(summary) -> None:
    comparisons = compare_summaries(summary, dict(summary))
    assert all(comparison.direction == "equal" for comparison in comparisons)
    assert regression_check(summary, dict(summary), {key: 0.0 for key in summary}) == []


@given(
    baseline=st.dictionaries(_METRIC_NAMES, _FINITE, min_size=1, max_size=6),
    candidate_values=st.lists(_FINITE, min_size=6, max_size=6),
)
def test_regression_check_never_flags_improvements(baseline, candidate_values) -> None:
    candidate = {
        key: candidate_values[index % len(candidate_values)]
        for index, key in enumerate(baseline)
    }
    violations = regression_check(baseline, candidate, {key: 0.0 for key in baseline})
    flagged = {message.split(":")[0] for message in violations}
    for comparison in compare_summaries(baseline, candidate):
        if comparison.direction in ("better", "equal"):
            assert comparison.metric not in flagged


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


@given(baseline=st.dictionaries(_METRIC_NAMES, _FINITE, min_size=1, max_size=6))
def test_summary_comparison_markdown_has_one_row_per_metric(baseline) -> None:
    comparisons = compare_summaries(baseline, dict(baseline))
    text = summary_comparison_markdown(comparisons)
    assert len(text.splitlines()) == 2 + len(comparisons)
