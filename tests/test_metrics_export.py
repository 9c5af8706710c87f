"""Tests for result export (CSV/JSON) and text CDF rendering."""

from __future__ import annotations

import csv
import json

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collector import ExperimentMetrics
from repro.metrics.export import (
    FLOW_RECORD_FIELDS,
    ascii_cdf,
    dumps_deterministic,
    flow_record_row,
    write_flow_records_csv,
    write_json,
    write_series_csv,
    write_summary_json,
)
from repro.metrics.records import FlowRecord


def _records():
    completed = FlowRecord(
        flow_id=1, protocol="mmptcp", size_bytes=70_000, is_long=False, start_time=0.01,
        receiver_completion_time=0.06, rto_events=0, data_packets_sent=50,
    )
    unfinished = FlowRecord(
        flow_id=2, protocol="mptcp", size_bytes=5_000_000, is_long=True, start_time=0.0,
        bytes_received=1_000_000, rto_events=2,
    )
    return [completed, unfinished]


# ---------------------------------------------------------------------------
# CSV / JSON round trips
# ---------------------------------------------------------------------------


def test_flow_record_row_has_every_exported_field() -> None:
    row = flow_record_row(_records()[0])
    assert set(row.keys()) == set(FLOW_RECORD_FIELDS)


def test_flow_csv_header_is_the_pinned_column_order(tmp_path) -> None:
    """The 18 flow-CSV columns, pinned literally: ``FLOW_RECORD_FIELDS`` is
    derived from :class:`FlowRecord`, so a reordered or added record field
    must show up here."""
    expected = (
        "flow_id", "protocol", "size_bytes", "is_long", "start_time",
        "receiver_completion_time", "sender_completion_time", "completion_time_ms",
        "rto_events", "fast_retransmits", "retransmitted_packets", "spurious_retransmits",
        "data_packets_sent", "duplicate_acks", "reordering_events", "bytes_received",
        "phase_at_completion", "switch_time",
    )
    assert FLOW_RECORD_FIELDS == expected
    path = write_flow_records_csv(_records(), tmp_path / "flows.csv")
    assert path.read_text().splitlines()[0] == ",".join(expected)


def test_write_flow_records_csv_round_trip(tmp_path) -> None:
    path = write_flow_records_csv(_records(), tmp_path / "flows.csv")
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert rows[0]["flow_id"] == "1"
    assert rows[0]["protocol"] == "mmptcp"
    # 50 ms completion time, serialised in milliseconds.
    assert float(rows[0]["completion_time_ms"]) == pytest.approx(50.0)
    assert rows[1]["receiver_completion_time"] == ""


def test_write_flow_records_csv_creates_parent_directories(tmp_path) -> None:
    path = write_flow_records_csv(_records(), tmp_path / "nested" / "deep" / "flows.csv")
    assert path.exists()


def test_write_summary_json_includes_extra_provenance(tmp_path) -> None:
    metrics = ExperimentMetrics(flows=_records(), duration_s=1.0)
    path = write_summary_json(metrics, tmp_path / "summary.json", extra={"seed": 7})
    payload = json.loads(path.read_text())
    assert payload["seed"] == 7
    assert payload["short_flows"] == 1.0
    assert "short_fct_mean_ms" in payload


def test_summary_dict_key_order_is_the_documented_contract() -> None:
    """Regression: insertion order must equal SUMMARY_FIELDS exactly.

    CSV headers, table rows and store artifacts derive their ordering from
    this dict, so a silent reordering would change exported bytes.
    """
    metrics = ExperimentMetrics(flows=_records(), duration_s=1.0)
    assert tuple(metrics.summary_dict().keys()) == ExperimentMetrics.SUMMARY_FIELDS


def test_dumps_deterministic_policy() -> None:
    text = dumps_deterministic({"b": 1, "a": 2.5}, indent=None)
    assert text == '{"a": 2.5, "b": 1}\n'  # sorted keys, one trailing newline
    # Equal payloads in different construction order serialise identically.
    assert dumps_deterministic({"x": 1, "y": 2}) == dumps_deterministic({"y": 2, "x": 1})
    # Floats use shortest round-trip repr; NaN has no portable form.
    assert "100000000.0" in dumps_deterministic([1e8])
    with pytest.raises(ValueError):
        dumps_deterministic({"bad": float("nan")})


def test_write_json_and_summary_json_are_byte_stable(tmp_path) -> None:
    metrics = ExperimentMetrics(flows=_records(), duration_s=1.0)
    first = write_summary_json(metrics, tmp_path / "first.json", extra={"seed": 7})
    second = write_summary_json(metrics, tmp_path / "second.json", extra={"seed": 7})
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().endswith("}\n")
    path = write_json({"b": [1, 2], "a": True}, tmp_path / "doc.json")
    assert path.read_text() == '{\n  "a": true,\n  "b": [\n    1,\n    2\n  ]\n}\n'


def test_write_series_csv_preserves_column_order(tmp_path) -> None:
    rows = [{"b": 2, "a": 1}, {"b": 4, "a": 3}]
    path = write_series_csv(rows, tmp_path / "series.csv", fieldnames=["a", "b"])
    header = path.read_text().splitlines()[0]
    assert header == "a,b"


def test_write_series_csv_empty_rows_writes_empty_file(tmp_path) -> None:
    path = write_series_csv([], tmp_path / "empty.csv")
    assert path.read_text() == ""


# ---------------------------------------------------------------------------
# ASCII CDF
# ---------------------------------------------------------------------------


def test_ascii_cdf_empty_input_renders_nothing() -> None:
    assert ascii_cdf([]) == ""


def test_ascii_cdf_contains_axis_and_range() -> None:
    chart = ascii_cdf([1.0, 2.0, 3.0], label="fct (ms)")
    assert "1.0 |" in chart
    assert "0.0 |" in chart
    assert "fct (ms)" in chart
    assert "*" in chart


def test_ascii_cdf_rejects_tiny_canvas() -> None:
    with pytest.raises(ValueError):
        ascii_cdf([1.0], width=2, height=2)


@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=200))
def test_ascii_cdf_never_raises_on_valid_samples(values) -> None:
    """Property: any non-empty sample renders without error."""
    chart = ascii_cdf(values)
    assert isinstance(chart, str) and chart
