#!/usr/bin/env python3
"""Incast burst tolerance: many synchronised senders, one receiver.

The paper's introduction lists TCP incast — a synchronised fan-in of
responses overflowing the receiver's switch port — among the reasons short
flows miss deadlines, and its roadmap argues that the packet-scatter phase
tolerates bursts because packets spread over many queues.  This example
fires a synchronised 16-to-1 burst of 70 KB responses inside a FatTree and
compares TCP, MPTCP(8) and MMPTCP.

Run with:  python examples/incast_burst.py
"""

from __future__ import annotations

import random

from repro.experiments import ExperimentConfig
from repro.experiments.runner import _record_for, build_topology, create_flow
from repro.metrics import ExperimentMetrics, render_table
from repro.net.monitor import snapshot as network_snapshot
from repro.sim import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.units import megabits_per_second
from repro.traffic import build_incast_workload

FAN_IN = 16
RESPONSE_BYTES = 70_000


def run_incast(protocol: str) -> ExperimentMetrics:
    """One synchronised fan-in under the given transport protocol."""
    config = ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=8,
        link_rate_bps=megabits_per_second(100),
        queue_capacity_packets=64,
        protocol=protocol,
        num_subflows=8,
        arrival_window_s=0.05,
        drain_time_s=2.0,
        seed=11,
    )
    simulator = Simulator()
    streams = RandomStreams(config.seed)
    topology = build_topology(config, simulator)
    rng = random.Random(config.seed)
    hosts = [host.name for host in topology.hosts]
    receiver_name = hosts[0]
    senders = rng.sample(hosts[1:], FAN_IN)
    workload = build_incast_workload(senders, receiver_name,
                                     response_size_bytes=RESPONSE_BYTES,
                                     start_time=0.01, protocol=protocol, num_subflows=8)
    instances = []
    for spec in workload.flows:
        instance = create_flow(spec, config, topology, simulator, streams)
        instances.append(instance)
        simulator.schedule_at(spec.start_time, instance.sender.start)
    simulator.run(until=config.horizon_s)

    metrics = ExperimentMetrics(duration_s=config.horizon_s)
    metrics.flows = [_record_for(instance) for instance in instances]
    metrics.network = network_snapshot(topology.hosts, topology.switches, config.horizon_s)
    return metrics


def main() -> None:
    rows = []
    for protocol in ("tcp", "mptcp", "mmptcp"):
        print(f"Running {FAN_IN}-to-1 incast with {protocol} ...")
        metrics = run_incast(protocol)
        summary = metrics.short_flow_fct_summary()
        rows.append([
            protocol,
            f"{100 * metrics.short_flow_completion_rate():.0f}%",
            f"{summary.mean:.1f}",
            f"{summary.p99:.1f}",
            f"{summary.maximum:.1f}",
            f"{100 * metrics.rto_incidence():.1f}%",
            f"{100 * metrics.loss_rate('edge'):.2f}%",
        ])

    print(f"\nIncast: {FAN_IN} senders x {RESPONSE_BYTES // 1000} KB responses to one receiver")
    print(render_table(
        ["protocol", "completed", "mean FCT (ms)", "p99 FCT (ms)", "max FCT (ms)",
         ">=1 RTO", "edge loss"],
        rows,
    ))
    print(
        "\nThe receiver's access link bounds how fast the burst can drain; the\n"
        "interesting column is RTO incidence — timeouts are what turn a ~70 ms\n"
        "burst into a 200+ ms one.  MMPTCP's single scatter window recovers with\n"
        "fast retransmit where MPTCP's thin per-subflow windows cannot."
    )


if __name__ == "__main__":
    main()
