"""Tests for the co-existence (fairness) experiment."""

from __future__ import annotations

import random

import pytest

from repro.experiments import (
    CoexistenceResult,
    ProtocolShare,
    build_mixed_protocol_workload,
    coexistence_rows,
    run_coexistence_experiment,
)
from repro.experiments.config import ExperimentConfig
from repro.sim.units import megabits_per_second
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP
from repro.traffic.workloads import ShortLongWorkloadParams


def _tiny_config(**overrides) -> ExperimentConfig:
    """A 16-host FatTree with a handful of flows: runs in a couple of seconds."""
    defaults = dict(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.05,
        drain_time_s=0.6,
        short_flow_rate_per_sender=4.0,
        long_flow_size_bytes=400_000,
        short_flow_size_bytes=70_000,
        max_short_flows=12,
        num_subflows=4,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _params(protocol: str = PROTOCOL_TCP) -> ShortLongWorkloadParams:
    return ShortLongWorkloadParams(
        short_flow_rate_per_sender=5.0,
        duration_s=0.1,
        long_flow_size_bytes=500_000,
        protocol=protocol,
        num_subflows=4,
    )


HOSTS = [f"host-{index}" for index in range(12)]


# ---------------------------------------------------------------------------
# Mixed workload construction
# ---------------------------------------------------------------------------


def test_mixed_workload_covers_every_requested_protocol() -> None:
    workload = build_mixed_protocol_workload(
        HOSTS, _params(), random.Random(1),
        protocols=(PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
    )
    seen = {flow.protocol for flow in workload.flows}
    assert seen == {PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP}


def test_mixed_workload_flow_ids_are_unique_and_sorted_by_start() -> None:
    workload = build_mixed_protocol_workload(
        HOSTS, _params(), random.Random(2),
        protocols=(PROTOCOL_TCP, PROTOCOL_MPTCP),
    )
    ids = [flow.flow_id for flow in workload.flows]
    starts = [flow.start_time for flow in workload.flows]
    assert len(ids) == len(set(ids))
    assert starts == sorted(starts)


def test_mixed_workload_partitions_senders_between_protocols() -> None:
    workload = build_mixed_protocol_workload(
        HOSTS, _params(), random.Random(3),
        protocols=(PROTOCOL_TCP, PROTOCOL_MPTCP),
    )
    senders_by_protocol = {}
    for flow in workload.flows:
        senders_by_protocol.setdefault(flow.protocol, set()).add(flow.source)
    assert not (senders_by_protocol[PROTOCOL_TCP] & senders_by_protocol[PROTOCOL_MPTCP])


def test_mixed_workload_rejects_too_few_hosts_or_no_protocols() -> None:
    with pytest.raises(ValueError):
        build_mixed_protocol_workload(HOSTS[:3], _params(), random.Random(1),
                                      protocols=(PROTOCOL_TCP, PROTOCOL_MPTCP))
    with pytest.raises(ValueError):
        build_mixed_protocol_workload(HOSTS, _params(), random.Random(1), protocols=())


# ---------------------------------------------------------------------------
# Full mixed-protocol run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coexistence_outcome() -> CoexistenceResult:
    return run_coexistence_experiment(
        _tiny_config(), protocols=(PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)
    )


def test_coexistence_reports_one_share_per_protocol(coexistence_outcome) -> None:
    assert set(coexistence_outcome.shares) == {PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP}
    for share in coexistence_outcome.shares.values():
        assert isinstance(share, ProtocolShare)
        assert share.short_flow_count + share.long_flow_count > 0


def test_coexistence_every_protocol_makes_progress(coexistence_outcome) -> None:
    for protocol, share in coexistence_outcome.shares.items():
        if share.short_flow_count:
            assert share.completion_rate > 0.0, protocol
        if share.long_flow_count:
            assert share.mean_long_throughput_bps > 0.0, protocol


def test_coexistence_fairness_index_in_unit_interval(coexistence_outcome) -> None:
    index = coexistence_outcome.fairness_index()
    assert 0.0 < index <= 1.0


def test_coexistence_throughput_ratio_and_harmony(coexistence_outcome) -> None:
    ratio = coexistence_outcome.throughput_ratio(PROTOCOL_MMPTCP, PROTOCOL_MPTCP)
    assert ratio > 0.0
    # The harmony predicate is monotone in its tolerance.
    assert coexistence_outcome.harmony(tolerance=1.0)
    if not coexistence_outcome.harmony(tolerance=0.1):
        assert coexistence_outcome.harmony(tolerance=0.99)


def test_coexistence_rows_shape(coexistence_outcome) -> None:
    rows = coexistence_rows(coexistence_outcome)
    assert len(rows) == 3
    for row in rows:
        assert {"protocol", "mean_fct_ms", "rto_incidence",
                "mean_long_throughput_mbps"} <= set(row)
