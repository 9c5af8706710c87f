"""Tests for flow records, statistics, aggregation and report rendering."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.study import STUDIES
from repro.metrics.collector import (
    _COLUMNS,
    CELL_METRIC_FIELDS,
    ExperimentMetrics,
    ExperimentResult,
)
from repro.metrics.records import FlowRecord
from repro.metrics.reporting import render_table
from repro.metrics.stats import (
    cdf_points,
    fraction_above,
    jains_fairness_index,
    summarize,
)
from repro.net.monitor import LayerLossStats, NetworkSnapshot


def _record(flow_id: int, fct_s: float = 0.05, is_long: bool = False, size: int = 70_000,
            rtos: int = 0, completed: bool = True, start: float = 1.0) -> FlowRecord:
    return FlowRecord(
        flow_id=flow_id,
        protocol="mptcp",
        size_bytes=size,
        is_long=is_long,
        start_time=start,
        receiver_completion_time=start + fct_s if completed else None,
        rto_events=rtos,
        bytes_received=size if completed else size // 2,
    )


class TestStats:
    def test_summarize_basic(self) -> None:
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.p50 == pytest.approx(2.5)

    def test_summarize_empty(self) -> None:
        summary = summarize([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_percentile_and_fraction(self) -> None:
        values = list(range(1, 101))
        assert summarize(values).p99 == pytest.approx(99.01)
        assert summarize([]).p50 == 0.0
        assert fraction_above(values, 90) == pytest.approx(0.10)
        assert fraction_above([], 1) == 0.0

    def test_cdf_points_are_monotone(self) -> None:
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
                          (3.0, pytest.approx(1.0))]
        assert cdf_points([]) == []

    def test_jains_fairness(self) -> None:
        assert jains_fairness_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)
        assert jains_fairness_index([10.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert jains_fairness_index([]) == 0.0


class TestFlowRecord:
    def test_completion_time_and_units(self) -> None:
        record = _record(1, fct_s=0.116)
        assert record.completed
        assert record.completion_time == pytest.approx(0.116)
        assert record.completion_time_ms == pytest.approx(116.0)

    def test_incomplete_flow(self) -> None:
        record = _record(2, completed=False)
        assert not record.completed
        assert record.completion_time is None
        assert record.completion_time_ms is None

    def test_throughput_for_completed_and_running_flows(self) -> None:
        completed = _record(1, fct_s=0.1, size=1_000_000)
        assert completed.throughput_bps() == pytest.approx(8e7)
        running = _record(2, completed=False, size=1_000_000, start=0.0)
        assert running.throughput_bps() == 0.0
        assert running.throughput_bps(horizon=4.0) == pytest.approx(1e6)

    def test_rto_flag(self) -> None:
        assert _record(1, rtos=2).experienced_rto
        assert not _record(1, rtos=0).experienced_rto


class TestExperimentMetrics:
    def _metrics(self) -> ExperimentMetrics:
        metrics = ExperimentMetrics(duration_s=2.0)
        metrics.flows = [
            _record(1, fct_s=0.050),
            _record(2, fct_s=0.100, rtos=1),
            _record(3, fct_s=0.300, rtos=2),
            _record(4, completed=False),
            _record(5, is_long=True, size=10_000_000, fct_s=1.5),
        ]
        snapshot = NetworkSnapshot(duration_s=2.0)
        snapshot.layer_loss["core"] = LayerLossStats("core", offered_packets=1000,
                                                     dropped_packets=10)
        snapshot.core_utilisation = 0.4
        metrics.network = snapshot
        return metrics

    def test_flow_views(self) -> None:
        metrics = self._metrics()
        assert len(metrics.short_flows) == 4
        assert len(metrics.long_flows) == 1
        assert len(metrics.completed_short_flows) == 3

    def test_fct_summary_in_milliseconds(self) -> None:
        metrics = self._metrics()
        summary = metrics.short_flow_fct_summary()
        assert summary.count == 3
        assert summary.mean == pytest.approx((50 + 100 + 300) / 3)

    def test_rates_and_incidence(self) -> None:
        metrics = self._metrics()
        assert metrics.short_flow_completion_rate() == pytest.approx(0.75)
        assert metrics.rto_incidence() == pytest.approx(0.5)
        assert metrics.tail_fraction(200.0) == pytest.approx(1 / 3)

    def test_network_quantities(self) -> None:
        metrics = self._metrics()
        assert metrics.loss_rate("core") == pytest.approx(0.01)
        assert metrics.loss_rate("aggregation") == 0.0
        assert metrics.core_utilisation() == pytest.approx(0.4)

    def test_long_flow_throughput(self) -> None:
        metrics = self._metrics()
        assert metrics.mean_long_flow_throughput_bps() > 0

    def test_scatter_and_summary_dict(self) -> None:
        metrics = self._metrics()
        points = metrics.completion_scatter()
        assert len(points) == 3
        assert {point["flow_id"] for point in points} == {1.0, 2.0, 3.0}
        summary = metrics.summary_dict()
        assert summary["short_flows"] == 4.0
        assert summary["rto_incidence"] == pytest.approx(0.5)
        assert summary["core_loss_rate"] == pytest.approx(0.01)

    def test_every_projection_selects_from_the_one_catalogue(self) -> None:
        """Summary keys, cell columns and the Section 3 row all name
        catalogue entries, and aliases of one quantity share its one function."""
        config = ExperimentConfig()
        result = ExperimentResult(config, self._metrics(), 0, 0.0, 0)
        (row,) = STUDIES["section3"].rows(RunSpec(0, config, tag={"protocol": "mptcp"}), result)
        projected = {
            *ExperimentMetrics.SUMMARY_FIELDS,
            *CELL_METRIC_FIELDS,
            *(name for name in row if name != "protocol"),
        }
        assert sorted(projected - set(_COLUMNS)) == []
        long_tput = _COLUMNS["long_tput_mbps"]
        assert _COLUMNS["long_throughput_mbps"] is long_tput
        assert _COLUMNS["long_flow_throughput_mbps"] is long_tput

    def test_empty_metrics_do_not_divide_by_zero(self) -> None:
        metrics = ExperimentMetrics(duration_s=1.0)
        assert metrics.short_flow_completion_rate() == 0.0
        assert metrics.rto_incidence() == 0.0
        assert metrics.mean_long_flow_throughput_bps() == 0.0
        assert metrics.loss_rate("core") == 0.0
        assert metrics.short_flow_fct_summary().count == 0


class TestReporting:
    def test_render_table_alignment_and_content(self) -> None:
        table = render_table(["protocol", "mean"], [["mptcp", 126.0], ["mmptcp", 116.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "protocol" in lines[0]
        assert "mmptcp" in lines[3]
        assert all(line.startswith("|") for line in lines)
