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
        assert policy.spurious_retransmits_seen == 1
        with pytest.raises(ValueError):
            StaticReorderingPolicy(threshold=0)

    def test_topology_informed_clamps_to_bounds(self) -> None:
        sender = _FakeSender()
        assert TopologyInformedPolicy(path_count=2).current_threshold(sender) == 3
        assert TopologyInformedPolicy(path_count=16).current_threshold(sender) == 16
        assert TopologyInformedPolicy(path_count=1000, maximum=64).current_threshold(sender) == 64
        with pytest.raises(ValueError):
            TopologyInformedPolicy(path_count=0)
        with pytest.raises(ValueError):
            TopologyInformedPolicy(path_count=4, minimum=5, maximum=2)

    def test_adaptive_policy_grows_on_spurious_retransmissions(self) -> None:
        policy = AdaptiveReorderingPolicy(initial=3, increment=2, maximum=9)
        sender = _FakeSender()
        assert policy.current_threshold(sender) == 3
        policy.on_spurious_retransmit(sender)
        assert policy.current_threshold(sender) == 5
        for _ in range(10):
            policy.on_spurious_retransmit(sender)
        assert policy.current_threshold(sender) == 9  # clamped at maximum
        assert policy.spurious_retransmits_seen == 11

    def test_adaptive_policy_decays_over_time(self) -> None:
        policy = AdaptiveReorderingPolicy(initial=3, increment=4, maximum=20,
                                          decay_interval=1.0)
        sender = _FakeSender()
        policy.on_spurious_retransmit(sender)     # threshold -> 7 at t=0
        assert policy.current_threshold(sender) == 7
        sender.simulator.schedule(2.5, lambda: None)
        sender.simulator.run()                     # advance clock to 2.5 s
        assert policy.current_threshold(sender) == 5  # decayed by 2 steps
        with pytest.raises(ValueError):
            AdaptiveReorderingPolicy(decay_interval=0.0)

    def test_adaptive_policy_validation(self) -> None:
        with pytest.raises(ValueError):
            AdaptiveReorderingPolicy(initial=0)
        with pytest.raises(ValueError):
            AdaptiveReorderingPolicy(increment=0)
        with pytest.raises(ValueError):
            AdaptiveReorderingPolicy(initial=10, maximum=5)
