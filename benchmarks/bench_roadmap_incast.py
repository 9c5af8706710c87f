"""Roadmap experiment — burst (incast) tolerance and multi-homing.

Section 3's roadmap argues that (a) the packet-scatter phase gracefully
handles sudden bursts because a burst is spread over many queues, and (b)
multi-homed topologies increase the number of parallel paths at the access
layer and therefore the burst tolerance.  This benchmark runs a synchronised
fan-in (incast) of 70 KB responses into one receiver on:

* a single-homed FatTree with TCP, MPTCP(8) and MMPTCP, and
* a dual-homed FatTree with MMPTCP,

comparing completion times and retransmission timeouts.
"""

from __future__ import annotations

import random

import pytest

from bench_common import base_config
from repro.experiments.runner import build_topology, create_flow
from repro.metrics.collector import ExperimentMetrics
from repro.metrics.records import FlowRecord
from repro.metrics.reporting import render_table
from repro.net.monitor import snapshot as network_snapshot
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP
from repro.traffic.workloads import build_incast_workload

FAN_IN = 24
RESPONSE_BYTES = 70_000


def _run_incast(protocol: str, topology_kind: str) -> ExperimentMetrics:
    config = base_config().with_updates(
        topology=topology_kind,
        protocol=protocol,
        hosts_per_edge=8,
        arrival_window_s=0.1,
        drain_time_s=2.5,
    )
    simulator = Simulator()
    streams = RandomStreams(config.seed)
    topology = build_topology(config, simulator)
    rng = random.Random(config.seed)
    hosts = [host.name for host in topology.hosts]
    receiver_name = hosts[0]
    senders = rng.sample(hosts[1:], FAN_IN)
    workload = build_incast_workload(
        senders, receiver_name, response_size_bytes=RESPONSE_BYTES,
        start_time=0.01, protocol=protocol, num_subflows=8,
    )
    instances = []
    for spec in workload.flows:
        instance = create_flow(spec, config, topology, simulator, streams)
        instances.append(instance)
        simulator.schedule_at(spec.start_time, instance.sender.start)
    simulator.run(until=config.horizon_s)

    from repro.experiments.runner import _record_for

    metrics = ExperimentMetrics(duration_s=config.horizon_s)
    metrics.flows = [_record_for(instance) for instance in instances]
    metrics.network = network_snapshot(topology.hosts, topology.switches, config.horizon_s)
    return metrics


def _run_all_incast_variants():
    return {
        "tcp / fat-tree": _run_incast(PROTOCOL_TCP, "fattree"),
        "mptcp-8 / fat-tree": _run_incast(PROTOCOL_MPTCP, "fattree"),
        "mmptcp / fat-tree": _run_incast(PROTOCOL_MMPTCP, "fattree"),
        "mmptcp / dual-homed": _run_incast(PROTOCOL_MMPTCP, "dualhomed"),
    }


@pytest.mark.benchmark(group="roadmap-incast")
def test_roadmap_incast_burst_tolerance(benchmark) -> None:
    """Synchronised 24-to-1 incast of 70 KB responses under each transport."""
    results = benchmark.pedantic(_run_all_incast_variants, rounds=1, iterations=1)

    rows = []
    for label, metrics in results.items():
        summary = metrics.short_flow_fct_summary()
        rows.append([
            label,
            f"{100 * metrics.short_flow_completion_rate():.1f}%",
            f"{summary.mean:.1f}",
            f"{summary.p99:.1f}",
            f"{100 * metrics.rto_incidence():.1f}%",
        ])
    print(
        f"\nRoadmap — incast: {FAN_IN} senders, "
        f"{RESPONSE_BYTES // 1000} KB responses, one receiver"
    )
    print(
        render_table(
            ["configuration", "completed", "mean FCT (ms)", "p99 FCT (ms)", "RTO incidence"],
            rows,
        )
    )
    print(
        "Paper (roadmap): packet scatter absorbs bursts across many queues; dual\n"
        "homing adds access-layer paths and hence burst tolerance."
    )

    for label, metrics in results.items():
        assert metrics.short_flow_completion_rate() >= 0.9, label
    # The incast bottleneck is the receiver's access link, so no protocol can
    # beat the serialisation bound; the claim under test is about RTO avoidance.
    assert (
        results["mmptcp / fat-tree"].rto_incidence()
        <= results["mptcp-8 / fat-tree"].rto_incidence() + 1e-9
    )
