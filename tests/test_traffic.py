"""Tests for traffic matrices, arrival processes, flow specs and workloads."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.traffic.arrivals import poisson_arrivals, synchronized_arrivals
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, FlowSpec
from repro.traffic.matrices import hotspot_pairs, permutation_pairs
from repro.traffic.workloads import (
    ShortLongWorkloadParams,
    build_hotspot_workload,
    build_incast_workload,
    build_short_long_workload,
)

HOSTS = [f"host-{index}" for index in range(24)]


class TestMatrices:
    def test_permutation_is_a_derangement(self) -> None:
        pairs = permutation_pairs(HOSTS, random.Random(1))
        assert len(pairs) == len(HOSTS)
        assert all(src != dst for src, dst in pairs)
        destinations = [dst for _, dst in pairs]
        assert sorted(destinations) == sorted(HOSTS)  # each host receives exactly once

    def test_permutation_deterministic_under_seed(self) -> None:
        assert permutation_pairs(HOSTS, random.Random(7)) == permutation_pairs(
            HOSTS, random.Random(7)
        )
        assert permutation_pairs(HOSTS, random.Random(7)) != permutation_pairs(
            HOSTS, random.Random(8)
        )

    def test_permutation_requires_two_hosts(self) -> None:
        with pytest.raises(ValueError):
            permutation_pairs(["only-one"], random.Random(1))

    def test_hotspot_pairs_concentrate_load(self) -> None:
        pairs = hotspot_pairs(HOSTS, random.Random(5), hotspot_fraction=0.1,
                              load_fraction=0.8)
        counts = Counter(dst for _, dst in pairs)
        assert max(counts.values()) >= 3  # some destination is clearly hot
        assert all(src != dst for src, dst in pairs)

    def test_hotspot_validation(self) -> None:
        with pytest.raises(ValueError):
            hotspot_pairs(HOSTS, random.Random(1), hotspot_fraction=0.0)
        with pytest.raises(ValueError):
            hotspot_pairs(HOSTS, random.Random(1), load_fraction=1.5)


class TestArrivals:
    def test_poisson_rate_approximately_respected(self) -> None:
        rng = random.Random(11)
        arrivals = poisson_arrivals(1000.0, 5.0, rng)
        assert 4000 < len(arrivals) < 6000
        assert all(0.0 <= t < 5.0 for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_poisson_zero_rate_and_validation(self) -> None:
        assert poisson_arrivals(0.0, 10.0, random.Random(1)) == []
        with pytest.raises(ValueError):
            poisson_arrivals(-1.0, 1.0, random.Random(1))
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, -1.0, random.Random(1))

    def test_synchronized_arrivals(self) -> None:
        assert synchronized_arrivals(3, start_time=1.0) == [1.0, 1.0, 1.0]


class TestFlowSpec:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            FlowSpec(1, "a", "a", 1000)
        with pytest.raises(ValueError):
            FlowSpec(1, "a", "b", 0)
        with pytest.raises(ValueError):
            FlowSpec(1, "a", "b", 1000, start_time=-1.0)
        with pytest.raises(ValueError):
            FlowSpec(1, "a", "b", 1000, protocol="quic")
        with pytest.raises(ValueError):
            FlowSpec(1, "a", "b", 1000, num_subflows=0)

    def test_short_long_flags(self) -> None:
        short = FlowSpec(1, "a", "b", 70_000, is_long=False)
        long_flow = FlowSpec(2, "a", "b", 10_000_000, is_long=True)
        assert short.is_short and not short.is_long
        assert long_flow.is_long and not long_flow.is_short


class TestWorkloads:
    def test_short_long_mix_matches_paper_recipe(self) -> None:
        params = ShortLongWorkloadParams(
            long_flow_fraction=1.0 / 3.0,
            short_flow_size_bytes=70_000,
            short_flow_rate_per_sender=20.0,
            duration_s=1.0,
            protocol=PROTOCOL_MPTCP,
            num_subflows=8,
        )
        workload = build_short_long_workload(HOSTS, params, random.Random(2))
        assert len(workload.long_flows) == round(len(HOSTS) / 3)
        assert all(flow.size_bytes == 70_000 for flow in workload.short_flows)
        assert all(flow.protocol == PROTOCOL_MPTCP for flow in workload.flows)
        assert all(flow.num_subflows == 8 for flow in workload.flows)
        assert len(workload.short_flows) > 0
        # Flow ids are unique.
        ids = [flow.flow_id for flow in workload.flows]
        assert len(ids) == len(set(ids))
        # Short flows arrive within the configured window.
        assert all(0.0 <= flow.start_time < 1.0 for flow in workload.short_flows)

    def test_short_flow_cap(self) -> None:
        params = ShortLongWorkloadParams(short_flow_rate_per_sender=50.0, duration_s=1.0,
                                         max_short_flows=10)
        workload = build_short_long_workload(HOSTS, params, random.Random(3))
        assert len(workload.short_flows) == 10

    def test_same_seed_gives_same_workload(self) -> None:
        params = ShortLongWorkloadParams()
        a = build_short_long_workload(HOSTS, params, random.Random(9))
        b = build_short_long_workload(HOSTS, params, random.Random(9))
        assert [(f.source, f.destination, f.start_time) for f in a.flows] == [
            (f.source, f.destination, f.start_time) for f in b.flows
        ]

    def test_workload_helper_views(self) -> None:
        params = ShortLongWorkloadParams(max_short_flows=5)
        workload = build_short_long_workload(HOSTS, params, random.Random(4))
        assert workload.total_bytes == sum(f.size_bytes for f in workload.flows)
        assert len(workload.short_flows) + len(workload.long_flows) == len(workload.flows)

    def test_incast_workload_synchronised(self) -> None:
        workload = build_incast_workload(HOSTS[:8], "sink", response_size_bytes=20_000,
                                         start_time=0.5, protocol=PROTOCOL_MMPTCP)
        assert len(workload.flows) == 8
        assert all(flow.start_time == 0.5 for flow in workload.flows)
        assert all(flow.destination == "sink" for flow in workload.flows)
        with pytest.raises(ValueError):
            build_incast_workload([], "sink")

    def test_hotspot_workload_builds(self) -> None:
        params = ShortLongWorkloadParams(short_flow_rate_per_sender=5.0, duration_s=0.5)
        workload = build_hotspot_workload(HOSTS, params, random.Random(6),
                                          hotspot_fraction=0.2, load_fraction=0.7)
        assert len(workload.flows) > 0
        assert len(workload.long_flows) == round(len(HOSTS) / 3)

    def test_params_validation(self) -> None:
        with pytest.raises(ValueError):
            ShortLongWorkloadParams(long_flow_fraction=1.0)
        with pytest.raises(ValueError):
            ShortLongWorkloadParams(short_flow_size_bytes=0)
        with pytest.raises(ValueError):
            ShortLongWorkloadParams(duration_s=0.0)
        with pytest.raises(ValueError):
            ShortLongWorkloadParams(short_flow_rate_per_sender=-5.0)
