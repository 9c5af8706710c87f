"""Tests for the deadline-miss study (DCTCP/D2TCP baselines vs MMPTCP)."""

from __future__ import annotations

import pytest

from repro.experiments import STUDIES, StudyPoint, run_study, study_rows
from repro.experiments.config import QUEUE_ECN, ExperimentConfig
from repro.experiments.deadline_study import build_deadline_workload_for
from repro.sim.units import megabits_per_second
from repro.traffic.deadlines import deadline_of
from repro.traffic.flowspec import PROTOCOL_D2TCP, PROTOCOL_MMPTCP, PROTOCOL_TCP


def _tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.05,
        drain_time_s=0.6,
        short_flow_rate_per_sender=4.0,
        long_flow_size_bytes=300_000,
        max_short_flows=8,
        num_subflows=4,
        seed=17,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def deadline_outcomes():
    points = run_study(
        STUDIES["deadlines"],
        _tiny_config(),
        protocols=(PROTOCOL_TCP, PROTOCOL_D2TCP, PROTOCOL_MMPTCP),
        slack_factor=4.0,
    )
    return {point.protocol: point for point in points}


def test_deadline_study_covers_requested_protocols(deadline_outcomes) -> None:
    assert set(deadline_outcomes) == {PROTOCOL_TCP, PROTOCOL_D2TCP, PROTOCOL_MMPTCP}
    for outcome in deadline_outcomes.values():
        assert isinstance(outcome, StudyPoint)
        assert outcome.short_flows > 0
        assert 0.0 <= outcome.deadline_miss_rate <= 1.0
        assert outcome.completion_rate > 0.0
        # The miss rate counts every deadline-carrying flow; the study leaves
        # DeadlineParams.long_flows_have_deadlines at False, so those are
        # exactly the short flows.
        workload = build_deadline_workload_for(outcome.spec.config, *outcome.spec.workload_args)
        assert workload.long_flows and workload.short_flows
        assert all(deadline_of(flow) is None for flow in workload.long_flows)
        assert all(deadline_of(flow) is not None for flow in workload.short_flows)


def test_deadline_study_ecn_protocols_ran_on_marking_queues(deadline_outcomes) -> None:
    assert deadline_outcomes[PROTOCOL_D2TCP].result.config.queue_kind == QUEUE_ECN
    assert deadline_outcomes[PROTOCOL_TCP].result.config.queue_kind != QUEUE_ECN


def test_deadline_study_slack_factor_recorded(deadline_outcomes) -> None:
    assert all(outcome.slack_factor == 4.0 for outcome in deadline_outcomes.values())


def test_deadline_rows_flat_and_complete(deadline_outcomes) -> None:
    rows = study_rows(list(deadline_outcomes.values()))
    assert len(rows) == 3
    for row in rows:
        assert {"protocol", "deadline_miss_rate", "mean_fct_ms",
                "rto_incidence", "completion_rate"} <= set(row)


def test_deadline_study_rejects_bad_slack() -> None:
    with pytest.raises(ValueError):
        run_study(STUDIES["deadlines"], _tiny_config(), slack_factor=0.0)
