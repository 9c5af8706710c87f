"""Unit tests for the phase-switching and reordering policy objects."""

from __future__ import annotations

import pytest

from repro.core.phase_switching import (
    CongestionEventSwitching,
    DataVolumeSwitching,
    HybridSwitching,
    NeverSwitch,
)
from repro.core.reordering import (
    AdaptiveReorderingPolicy,
    StaticReorderingPolicy,
    TopologyInformedPolicy,
)
from repro.sim.engine import Simulator
from repro.transport.cc.base import LOSS_FAST_RETRANSMIT, LOSS_TIMEOUT


class _FakeSender:
    """Minimal sender stand-in for policy unit tests."""

    def __init__(self) -> None:
        self.simulator = Simulator()


class TestSwitchingPolicies:
    def test_data_volume_threshold(self) -> None:
        policy = DataVolumeSwitching(threshold_bytes=100_000)
        assert not policy.should_switch_on_data(99_999)
        assert policy.should_switch_on_data(100_000)
        assert not policy.should_switch_on_congestion(LOSS_TIMEOUT)
        assert "100000" in policy.describe()

    def test_data_volume_validation(self) -> None:
        with pytest.raises(ValueError):
            DataVolumeSwitching(threshold_bytes=0)

    def test_congestion_event_triggers(self) -> None:
        policy = CongestionEventSwitching()
        assert policy.should_switch_on_congestion(LOSS_FAST_RETRANSMIT)
        assert policy.should_switch_on_congestion(LOSS_TIMEOUT)
        assert not policy.should_switch_on_data(10**9)
        assert not policy.should_switch_on_congestion("unknown-kind")

    def test_hybrid_switches_on_either(self) -> None:
        policy = HybridSwitching(threshold_bytes=50_000)
        assert policy.should_switch_on_data(50_000)
        assert policy.should_switch_on_congestion(LOSS_FAST_RETRANSMIT)
        with pytest.raises(ValueError):
            HybridSwitching(threshold_bytes=-1)

    def test_never_switch(self) -> None:
        policy = NeverSwitch()
        assert not policy.should_switch_on_data(10**12)
        assert not policy.should_switch_on_congestion(LOSS_TIMEOUT)
        assert "never" in policy.describe()


class TestReorderingPolicies:
    def test_static_policy_constant(self) -> None:
        policy = StaticReorderingPolicy(threshold=3)
        sender = _FakeSender()
        assert policy.current_threshold(sender) == 3
        policy.on_spurious_retransmit(sender)
        assert policy.current_threshold(sender) == 3
        with pytest.raises(ValueError):
            StaticReorderingPolicy(threshold=0)

    def test_topology_informed_clamps_to_bounds(self) -> None:
        sender = _FakeSender()
        assert TopologyInformedPolicy(path_count=2).current_threshold(sender) == 3
        assert TopologyInformedPolicy(path_count=16).current_threshold(sender) == 16
        assert TopologyInformedPolicy(path_count=1000).current_threshold(sender) == 64
        with pytest.raises(ValueError):
            TopologyInformedPolicy(path_count=0)

    def test_adaptive_policy_grows_on_spurious_retransmissions(self) -> None:
        policy = AdaptiveReorderingPolicy()
        sender = _FakeSender()
        assert policy.current_threshold(sender) == 3
        policy.on_spurious_retransmit(sender)
        assert policy.current_threshold(sender) == 5
        for _ in range(40):
            policy.on_spurious_retransmit(sender)
        assert policy.current_threshold(sender) == 64  # clamped at the maximum
