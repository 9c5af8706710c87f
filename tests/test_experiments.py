"""Tests for the experiment configuration and (small-scale) runner integration."""

from __future__ import annotations

import gc
import weakref
from typing import List

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
from repro.experiments import runner
from repro.experiments.config import TOPOLOGIES, ExperimentConfig, paper_scale
from repro.experiments.runner import (
    build_topology,
    build_workload,
    fabric_host_names,
    make_reordering_policy,
    make_switching_policy,
    run_experiment,
)
from repro.metrics.export import dumps_deterministic
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.topology.dualhomed import DualHomedFatTreeTopology
from repro.topology.fattree import FatTreeTopology

# A deliberately tiny configuration so integration tests stay fast: 16 hosts,
# a handful of short flows, small long flows, sub-second horizon.
TINY = ExperimentConfig(
    fattree_k=4,
    hosts_per_edge=2,
    link_rate_bps=200e6,
    arrival_window_s=0.1,
    drain_time_s=0.6,
    short_flow_rate_per_sender=4.0,
    long_flow_size_bytes=400_000,
    short_flow_size_bytes=70_000,
    max_short_flows=6,
    protocol="tcp",
    num_subflows=2,
    seed=7,
)


class TestConfig:
    def test_defaults_are_paper_shaped(self) -> None:
        config = ExperimentConfig()
        assert config.short_flow_size_bytes == 70_000
        assert config.long_flow_fraction == pytest.approx(1 / 3)
        assert config.min_rto_s == pytest.approx(0.2)
        # 4:1 over-subscription by default.
        assert config.hosts_per_edge / (config.fattree_k / 2) == pytest.approx(4.0)

    def test_paper_scale_has_512_servers(self) -> None:
        config = paper_scale()
        assert config.fattree_k == 8
        assert config.hosts_per_edge == 16
        assert config.fattree_k * (config.fattree_k // 2) * config.hosts_per_edge == 512

    def test_with_protocol_and_updates_preserve_other_fields(self) -> None:
        config = ExperimentConfig(seed=42)
        mptcp8 = config.with_protocol("mptcp", num_subflows=8)
        assert mptcp8.protocol == "mptcp"
        assert mptcp8.num_subflows == 8
        assert mptcp8.seed == 42
        updated = config.with_updates(queue_capacity_packets=50)
        assert updated.queue_capacity_packets == 50
        assert updated.seed == 42

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            ExperimentConfig(fattree_k=3)
        with pytest.raises(ValueError):
            ExperimentConfig(arrival_window_s=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(num_subflows=0)
        with pytest.raises(ValueError):
            ExperimentConfig(topology="jellyfish")
        with pytest.raises(ValueError, match="unknown protocol 'quic'"):
            ExperimentConfig(protocol="quic")
        with pytest.raises(ValueError, match="unknown switching policy 'bogus'"):
            ExperimentConfig(switching_policy="bogus")
        with pytest.raises(ValueError, match="unknown reordering policy 'bogus'"):
            ExperimentConfig(reordering_policy="bogus")

    def test_horizon(self) -> None:
        config = ExperimentConfig(arrival_window_s=0.3, drain_time_s=1.2)
        assert config.horizon_s == pytest.approx(1.5)


class TestFactories:
    def test_topology_factory_builds_requested_fabric(self) -> None:
        assert isinstance(build_topology(TINY, Simulator()), FatTreeTopology)
        assert isinstance(
            build_topology(TINY.with_updates(topology="dualhomed"), Simulator()),
            DualHomedFatTreeTopology,
        )

    def test_switching_policy_factory(self) -> None:
        assert isinstance(make_switching_policy(TINY), DataVolumeSwitching)
        assert isinstance(
            make_switching_policy(TINY.with_updates(switching_policy="congestion_event")),
            CongestionEventSwitching,
        )
        assert isinstance(
            make_switching_policy(TINY.with_updates(switching_policy="hybrid")),
            HybridSwitching,
        )
        assert isinstance(
            make_switching_policy(TINY.with_updates(switching_policy="never")), NeverSwitch
        )

    def test_reordering_policy_factory(self) -> None:
        assert isinstance(make_reordering_policy(TINY, 8), TopologyInformedPolicy)
        assert isinstance(
            make_reordering_policy(TINY.with_updates(reordering_policy="static"), 8),
            StaticReorderingPolicy,
        )
        assert isinstance(
            make_reordering_policy(TINY.with_updates(reordering_policy="adaptive"), 8),
            AdaptiveReorderingPolicy,
        )

    def test_workload_factory_uses_topology_hosts(self) -> None:
        simulator = Simulator()
        topology = build_topology(TINY, simulator)
        workload = build_workload(TINY, topology, RandomStreams(TINY.seed))
        host_names = {host.name for host in topology.hosts}
        assert all(flow.source in host_names and flow.destination in host_names
                   for flow in workload.flows)


class TestRunnerIntegration:
    @pytest.mark.parametrize("protocol", ["tcp", "mptcp", "mmptcp"])
    def test_all_protocols_complete_their_short_flows(self, protocol: str) -> None:
        config = TINY.with_protocol(protocol, num_subflows=2)
        result = run_experiment(config)
        metrics = result.metrics
        assert 1 <= len(metrics.short_flows) <= 6
        assert metrics.short_flow_completion_rate() == 1.0
        assert metrics.network is not None
        assert result.events_processed > 0
        summary = metrics.summary_dict()
        assert summary["short_fct_mean_ms"] > 0

    def test_packet_scatter_protocol_runs(self) -> None:
        # Pure packet scatter is MMPTCP with one subflow that never switches.
        config = TINY.with_protocol("mmptcp", num_subflows=1).with_updates(
            switching_policy="never"
        )
        result = run_experiment(config)
        assert result.metrics.short_flow_completion_rate() == 1.0

    def test_same_seed_reproducible_fcts(self) -> None:
        first = run_experiment(TINY)
        second = run_experiment(TINY)
        fct_a = [record.completion_time for record in first.metrics.short_flows]
        fct_b = [record.completion_time for record in second.metrics.short_flows]
        assert fct_a == fct_b

    def test_different_seed_changes_workload(self) -> None:
        other = run_experiment(TINY.with_updates(seed=99))
        base = run_experiment(TINY)
        starts_a = [record.start_time for record in base.metrics.flows]
        starts_b = [record.start_time for record in other.metrics.flows]
        assert starts_a != starts_b

    def test_mmptcp_records_phase_information(self) -> None:
        config = TINY.with_protocol("mmptcp", num_subflows=2).with_updates(
            switching_threshold_bytes=100_000
        )
        result = run_experiment(config)
        shorts = result.metrics.short_flows
        longs = result.metrics.long_flows
        assert all(record.phase_at_completion == "packet_scatter" for record in shorts)
        assert all(record.phase_at_completion == "mptcp" for record in longs)
        assert all(record.switch_time is not None for record in longs)


class _FailingSimulator(Simulator):
    def run(self, *args, **kwargs) -> None:
        raise RuntimeError("simulated failure")


@pytest.fixture
def no_automatic_gc():
    """Only the run boundary may collect while the test runs."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.fixture
def born(monkeypatch) -> List[weakref.ref]:
    """Weak references to every ``Simulator`` the runner builds."""
    simulators: List[weakref.ref] = []

    class WeaklyRecordedSimulator(Simulator):
        def __init__(self) -> None:
            super().__init__()
            simulators.append(weakref.ref(self))

    monkeypatch.setattr(runner, "Simulator", WeaklyRecordedSimulator)
    return simulators


@pytest.mark.usefixtures("no_automatic_gc")
class TestRunBoundary:
    def test_the_run_graph_is_freed_when_run_experiment_returns(self, born) -> None:
        result = run_experiment(TINY.with_protocol("mptcp", num_subflows=2))
        assert result.events_processed > 0
        assert len(born) == 1
        assert born[0]() is None

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_fabric_host_names_leave_no_graph_behind(self, born, topology: str) -> None:
        config = TINY.with_updates(topology=topology)
        expected = [host.name for host in build_topology(config, Simulator()).hosts]
        assert fabric_host_names(config) == expected
        assert len(born) == 1
        assert born[0]() is None

    def test_nothing_stays_frozen_after_a_run(self) -> None:
        run_experiment(TINY)
        assert gc.get_freeze_count() == 0

    def test_nothing_stays_frozen_after_a_failed_run(self, monkeypatch) -> None:
        monkeypatch.setattr(runner, "Simulator", _FailingSimulator)
        with pytest.raises(RuntimeError, match="simulated failure"):
            run_experiment(TINY)
        assert gc.get_freeze_count() == 0

    def test_a_run_between_two_equal_runs_changes_nothing(self) -> None:
        first_a, b, second_a = (
            dumps_deterministic(run_experiment(config).metrics.summary_dict())
            for config in (
                TINY.with_protocol("mptcp", num_subflows=2),
                TINY.with_protocol("mmptcp", num_subflows=2).with_updates(seed=11),
                TINY.with_protocol("mptcp", num_subflows=2),
            )
        )
        assert first_a == second_a
        assert b != first_a
