"""Tests for the hotspot-skew experiment."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments import STUDIES, StudyPoint, run_study, study_rows
from repro.experiments.config import ExperimentConfig
from repro.experiments.hotspot import build_hotspot_workload_for
from repro.sim.units import megabits_per_second
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP


def _tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.05,
        drain_time_s=0.6,
        short_flow_rate_per_sender=4.0,
        long_flow_size_bytes=300_000,
        max_short_flows=10,
        num_subflows=4,
        seed=13,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_hotspot_workload_is_skewed_towards_few_destinations() -> None:
    # Workload construction only (no simulation), so a longer arrival window
    # is cheap and gives enough flows for the skew to be statistically visible.
    config = _tiny_config(
        max_short_flows=None, short_flow_rate_per_sender=8.0, arrival_window_s=0.3
    )
    workload = build_hotspot_workload_for(
        config, hotspot_fraction=0.125, load_fraction=0.9, protocol=PROTOCOL_MPTCP
    )
    pairs = [(flow.source, flow.destination) for flow in workload.flows]
    counts = Counter(dst for _, dst in pairs)
    # With 90 % of senders redirected to ~2 hotspots, the most popular
    # destination must attract well above the uniform share.
    uniform_share = len(pairs) / 16
    assert max(counts.values()) > 2 * uniform_share


def test_hotspot_workload_is_identical_across_protocols_given_same_seed() -> None:
    config = _tiny_config()
    mptcp = build_hotspot_workload_for(config, 0.25, 0.5, PROTOCOL_MPTCP)
    mmptcp = build_hotspot_workload_for(config, 0.25, 0.5, PROTOCOL_MMPTCP)
    assert len(mptcp.flows) == len(mmptcp.flows)
    for a, b in zip(mptcp.flows, mmptcp.flows):
        assert (a.source, a.destination, a.size_bytes, a.start_time) == (
            b.source, b.destination, b.size_bytes, b.start_time
        )


@pytest.fixture(scope="module")
def hotspot_outcomes():
    return run_study(
        STUDIES["hotspot"],
        _tiny_config(),
        protocols=(PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
        hotspot_fraction=0.25,
        load_fraction=0.5,
    )


def test_hotspot_comparison_covers_requested_protocols(hotspot_outcomes) -> None:
    assert [outcome.protocol for outcome in hotspot_outcomes] == [PROTOCOL_MPTCP, PROTOCOL_MMPTCP]
    for outcome in hotspot_outcomes:
        assert isinstance(outcome, StudyPoint)
        assert outcome.completion_rate > 0.0
        assert 0.0 <= outcome.rto_incidence <= 1.0


def test_hotspot_rows_flat_and_complete(hotspot_outcomes) -> None:
    rows = study_rows(hotspot_outcomes)
    assert len(rows) == 2
    for row in rows:
        assert {"protocol", "hotspot_fraction", "mean_fct_ms", "edge_loss_rate",
                "long_throughput_mbps"} <= set(row)


def test_hotspot_comparison_rejects_empty_protocol_list() -> None:
    with pytest.raises(ValueError):
        run_study(STUDIES["hotspot"], _tiny_config(), protocols=())
