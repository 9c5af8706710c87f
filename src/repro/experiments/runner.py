"""Experiment driver: configuration in, metrics out.

The runner builds the topology, materialises the workload, instantiates one
sender/receiver pair per flow for the configured protocol, runs the event
loop for the configured horizon and finally joins transport counters,
receiver state and switch counters into an :class:`ExperimentMetrics`.
"""

from __future__ import annotations

import gc
import time as _wallclock
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, TypeVar

from repro.core.mmptcp import MmptcpConnection
from repro.core.phase_switching import (
    CongestionEventSwitching,
    DataVolumeSwitching,
    HybridSwitching,
    NeverSwitch,
    SwitchingPolicy,
)
from repro.core.reordering import (
    AdaptiveReorderingPolicy,
    StaticReorderingPolicy,
    TopologyInformedPolicy,
)
from repro.experiments.config import (
    FIDELITY_FLOW,
    REORDERING_ADAPTIVE,
    REORDERING_STATIC,
    REORDERING_TOPOLOGY,
    SWITCHING_CONGESTION,
    SWITCHING_DATA_VOLUME,
    SWITCHING_HYBRID,
    SWITCHING_NEVER,
    TOPOLOGY_FATTREE,
    ExperimentConfig,
)
from repro.metrics.collector import ExperimentMetrics, ExperimentResult
from repro.metrics.records import FlowRecord
from repro.net.faults import FaultInjector
from repro.net.host import Host
from repro.net.monitor import snapshot as network_snapshot
from repro.net.packet import default_pool, set_pool_profile
from repro.net.queues import DropTailQueue
from repro.obs.profiler import EngineProfiler, pool_counters, profile_diagnostics
from repro.obs.telemetry import NULL_PROBES, TelemetryProbes
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.topology.base import Topology
from repro.topology.dualhomed import DualHomedFatTreeTopology
from repro.topology.fattree import FatTreeParams, FatTreeTopology
from repro.traffic.flowspec import (
    PROTOCOL_MMPTCP,
    PROTOCOL_MPTCP,
    PROTOCOL_TCP,
    FlowSpec,
)
from repro.traffic.workloads import ShortLongWorkloadParams, Workload, build_short_long_workload
from repro.transport.base import TcpConfig
from repro.transport.mptcp import MptcpConnection, MptcpReceiver
from repro.transport.receiver import TcpReceiver
from repro.transport.tcp import TcpSender

T = TypeVar("T")


@dataclass
class _FlowInstance:
    """Bookkeeping linking a spec to its live endpoints."""

    spec: FlowSpec
    sender: object
    receiver: object


# ---------------------------------------------------------------------------
# Topology and workload construction
# ---------------------------------------------------------------------------


def build_topology(config: ExperimentConfig, simulator: Simulator) -> Topology:
    """Instantiate the fabric described by ``config``."""
    params = FatTreeParams(
        k=config.fattree_k,
        hosts_per_edge=config.hosts_per_edge,
        link_rate_bps=config.link_rate_bps,
        core_oversubscription=config.core_oversubscription,
        link_delay_s=config.link_delay_s,
    )
    topology_class = (
        FatTreeTopology if config.topology == TOPOLOGY_FATTREE else DualHomedFatTreeTopology
    )
    capacity = config.queue_capacity_packets
    return topology_class(
        simulator, params, queue_factory=lambda: DropTailQueue(capacity_packets=capacity)
    )


def workload_params(
    config: ExperimentConfig, protocol: Optional[str] = None
) -> ShortLongWorkloadParams:
    """The paper's short/long mix as ``config`` describes it.

    The one config → workload-parameter mapping: the default workload and
    every study recipe derive from it (``protocol`` overrides the config's).
    """
    return ShortLongWorkloadParams(
        long_flow_fraction=config.long_flow_fraction,
        short_flow_size_bytes=config.short_flow_size_bytes,
        long_flow_size_bytes=config.long_flow_size_bytes,
        short_flow_rate_per_sender=config.short_flow_rate_per_sender,
        duration_s=config.arrival_window_s,
        max_short_flows=config.max_short_flows,
        protocol=config.protocol if protocol is None else protocol,
        num_subflows=config.num_subflows,
    )


def fabric_host_names(config: ExperimentConfig) -> List[str]:
    """Host names of the fabric ``config`` describes, in topology order.

    Workload recipes run before the experiment's own fabric exists and need
    only the names, so this builds a throwaway topology inside the run
    boundary, which frees its cyclic graph before returning.
    """
    return _run_boundary(_host_names, config)


def _host_names(config: ExperimentConfig) -> List[str]:
    return [host.name for host in build_topology(config, Simulator()).hosts]


def build_workload(
    config: ExperimentConfig, topology: Topology, streams: RandomStreams
) -> Workload:
    """Materialise the short/long mixed workload for ``config``."""
    host_names = [host.name for host in topology.hosts]
    return build_short_long_workload(
        host_names, workload_params(config), streams.stream("workload")
    )


# ---------------------------------------------------------------------------
# Protocol factory
# ---------------------------------------------------------------------------


def _tcp_config(config: ExperimentConfig) -> TcpConfig:
    return TcpConfig(
        mss=config.mss_bytes,
        initial_cwnd_segments=config.initial_cwnd_segments,
        dupack_threshold=config.dupack_threshold,
        min_rto=config.min_rto_s,
    )


def make_switching_policy(config: ExperimentConfig) -> SwitchingPolicy:
    """Build the MMPTCP phase-switching policy named by ``config``."""
    if config.switching_policy == SWITCHING_DATA_VOLUME:
        return DataVolumeSwitching(threshold_bytes=config.switching_threshold_bytes)
    if config.switching_policy == SWITCHING_CONGESTION:
        return CongestionEventSwitching()
    if config.switching_policy == SWITCHING_HYBRID:
        return HybridSwitching(threshold_bytes=config.switching_threshold_bytes)
    if config.switching_policy == SWITCHING_NEVER:
        return NeverSwitch()
    raise ValueError(f"unknown switching policy {config.switching_policy!r}")


def make_reordering_policy(config: ExperimentConfig, path_count: int):
    """Build the packet-scatter reordering policy named by ``config``."""
    if config.reordering_policy == REORDERING_STATIC:
        return StaticReorderingPolicy(threshold=config.dupack_threshold)
    if config.reordering_policy == REORDERING_TOPOLOGY:
        return TopologyInformedPolicy(path_count=path_count)
    if config.reordering_policy == REORDERING_ADAPTIVE:
        return AdaptiveReorderingPolicy()
    raise ValueError(f"unknown reordering policy {config.reordering_policy!r}")


def create_flow(
    spec: FlowSpec,
    config: ExperimentConfig,
    topology: Topology,
    simulator: Simulator,
    streams: RandomStreams,
    probes: TelemetryProbes = NULL_PROBES,
) -> _FlowInstance:
    """Instantiate the sender and receiver endpoints for one flow spec."""
    instance = _build_flow(spec, config, topology, simulator, streams)
    if probes.enabled:
        sender = instance.sender
        if isinstance(sender, MptcpConnection):
            sender.set_probes(probes)
        else:
            sender.probes = probes
    return instance


def _build_flow(
    spec: FlowSpec,
    config: ExperimentConfig,
    topology: Topology,
    simulator: Simulator,
    streams: RandomStreams,
) -> _FlowInstance:
    source = topology.node(spec.source)
    destination = topology.node(spec.destination)
    if not isinstance(source, Host) or not isinstance(destination, Host):
        raise ValueError("flow endpoints must be hosts")
    tcp_config = _tcp_config(config)
    port = destination.allocate_port()
    protocol = spec.protocol

    if protocol == PROTOCOL_TCP:
        receiver = TcpReceiver(
            simulator, destination, local_port=port, flow_id=spec.flow_id,
            expected_bytes=spec.size_bytes,
        )
        sender = TcpSender(
            simulator, source, destination.address, port, spec.size_bytes,
            flow_id=spec.flow_id, config=tcp_config,
        )
        return _FlowInstance(spec, sender, receiver)

    if protocol not in (PROTOCOL_MPTCP, PROTOCOL_MMPTCP):
        raise ValueError(f"unknown protocol {protocol!r}")
    receiver = MptcpReceiver(
        simulator, destination, local_port=port, flow_id=spec.flow_id,
        expected_bytes=spec.size_bytes,
    )
    if protocol == PROTOCOL_MPTCP:
        sender = MptcpConnection(
            simulator, source, destination.address, port, spec.size_bytes,
            num_subflows=spec.num_subflows, flow_id=spec.flow_id, config=tcp_config,
        )
        return _FlowInstance(spec, sender, receiver)

    path_count = topology.expected_path_count(source, destination)
    reordering = make_reordering_policy(config, path_count)
    rng = streams.stream(f"scatter-{spec.flow_id}")
    sender = MmptcpConnection(
        simulator, source, destination.address, port, spec.size_bytes,
        num_subflows=spec.num_subflows, flow_id=spec.flow_id, config=tcp_config,
        switching_policy=make_switching_policy(config),
        reordering_policy=reordering, path_count_hint=path_count, rng=rng,
    )
    return _FlowInstance(spec, sender, receiver)


# ---------------------------------------------------------------------------
# Record extraction
# ---------------------------------------------------------------------------


def _record_for(instance: _FlowInstance) -> FlowRecord:
    spec = instance.spec
    sender = instance.sender
    receiver = instance.receiver
    record = FlowRecord(
        flow_id=spec.flow_id,
        protocol=spec.protocol,
        size_bytes=spec.size_bytes,
        is_long=spec.is_long,
        start_time=spec.start_time,
    )

    if isinstance(receiver, TcpReceiver):
        record.receiver_completion_time = receiver.completion_time
        record.bytes_received = receiver.bytes_received_in_order
    if isinstance(receiver, MptcpReceiver):
        record.reordering_events = receiver.reordering_events

    if isinstance(sender, TcpSender):
        stats = sender.stats
        record.sender_completion_time = stats.completion_time
    elif isinstance(sender, MptcpConnection):
        stats = sender.aggregate_stats()
        record.sender_completion_time = sender.completion_time
    else:  # pragma: no cover - defensive
        return record

    record.rto_events = stats.rto_events
    record.fast_retransmits = stats.fast_retransmits
    record.retransmitted_packets = stats.retransmitted_packets
    record.spurious_retransmits = stats.spurious_retransmits
    record.data_packets_sent = stats.data_packets_sent
    record.duplicate_acks = stats.duplicate_acks

    if isinstance(sender, MmptcpConnection):
        record.phase_at_completion = sender.phase
        record.switch_time = sender.switch_time
    return record


# ---------------------------------------------------------------------------
# Top-level entry point
# ---------------------------------------------------------------------------


def run_experiment(
    config: ExperimentConfig,
    workload: Optional[Workload] = None,
    probes: Optional[TelemetryProbes] = None,
    profile: bool = False,
) -> ExperimentResult:
    """Run one simulation described by ``config`` and return its metrics.

    Args:
        config: the experiment description.
        workload: pre-built workload (the runner builds the paper's short/long
            mix when omitted).  Passing the same workload object to several
            configs is how protocol comparisons stay paired.
        probes: optional telemetry recorder; when given, every endpoint,
            host, switch and the fault injector report into it.
        profile: attach the engine profiler and return its ``diagnostics``
            on the result (wall-clock-bearing, key-excluded).

    The run's object graph is freed before this returns (:func:`_run_boundary`).
    """
    return _run_boundary(_simulate, config, workload, probes, profile)


def _run_boundary(build: Callable[..., T], *args: Any) -> T:
    """Return ``build(*args)`` once the cyclic garbage it left is collected.

    A run's object graph is cyclic (hosts and interfaces, endpoints and
    their timers, connections and subflows), so it outlives the run until
    the collector gets to it.  The boundary collects it here, once the
    call's frame has returned, so that a process of many runs peaks at one
    run's footprint.  Freezing what the process held before the call
    confines that collection to the call's own objects; unfreezing hands
    them back.
    """
    # repro: allow[no-process-global-gc] -- run boundary owns the permanent generation
    gc.freeze()
    try:
        return build(*args)
    finally:
        gc.collect()  # repro: allow[no-process-global-gc] -- run boundary (above)
        gc.unfreeze()  # repro: allow[no-process-global-gc] -- run boundary (above)


def _simulate(
    config: ExperimentConfig,
    workload: Optional[Workload],
    probes: Optional[TelemetryProbes],
    profile: bool,
) -> ExperimentResult:
    """Build, run and measure one simulation (packet or flow tier)."""
    if config.fidelity == FIDELITY_FLOW:
        # Imported lazily: repro.flowlevel reuses this module's topology and
        # workload builders, so a top-level import would be a cycle.
        from repro.flowlevel.engine import run_flow_experiment

        return run_flow_experiment(
            config, workload=workload, probes=probes, profile=profile
        )

    # wallclock_s is a pure diagnostic: the store normalises it to 0.0 and no
    # metric derives from it, so the real-clock read cannot perturb results.
    # repro: allow[no-wallclock-or-global-random] -- diagnostic only
    wall_start = _wallclock.monotonic()
    flow_probes = probes if probes is not None else NULL_PROBES
    simulator = Simulator()
    profiler = None
    pool = None
    pool_baseline = None
    pool_profile_was = False
    if profile:
        profiler = EngineProfiler()
        simulator.profiler = profiler
        pool = default_pool()
        pool_profile_was = set_pool_profile(True)
        pool_baseline = pool_counters(pool)
    try:
        streams = RandomStreams(config.seed)
        topology = build_topology(config, simulator)
        if flow_probes.enabled:
            for node in (*topology.hosts, *topology.switches):
                node.probes = flow_probes
        if config.fault_schedule:
            FaultInjector(simulator, topology, config.fault_schedule, probes=flow_probes).arm()
        if workload is None:
            workload = build_workload(config, topology, streams)

        instances: List[_FlowInstance] = []
        for spec in workload.flows:
            instance = create_flow(
                spec, config, topology, simulator, streams, probes=flow_probes
            )
            instances.append(instance)
            simulator.schedule_at(spec.start_time, instance.sender.start)

        simulator.run(until=config.horizon_s)
    finally:
        if profile:
            set_pool_profile(pool_profile_was)

    metrics = ExperimentMetrics(duration_s=config.horizon_s)
    metrics.flows = [_record_for(instance) for instance in instances]
    metrics.network = network_snapshot(topology.hosts, topology.switches, config.horizon_s)

    # repro: allow[no-wallclock-or-global-random] -- diagnostic only (above)
    wallclock_s = _wallclock.monotonic() - wall_start
    diagnostics = None
    if profiler is not None:
        diagnostics = profile_diagnostics(
            profiler, simulator, wallclock_s, pool=pool, pool_baseline=pool_baseline
        )

    return ExperimentResult(
        config=config,
        metrics=metrics,
        events_processed=simulator.events_processed,
        wallclock_s=wallclock_s,
        workload_size=len(workload.flows),
        diagnostics=diagnostics,
    )
