#!/usr/bin/env python3
"""Quickstart: one MMPTCP flow on a FatTree, step by step.

Describes a small 4-ary FatTree and a single 1 MB MMPTCP transfer between
hosts in different pods, runs it, and prints the flow's record — what every
export of a run holds: when the connection switched from the
packet-scatter phase to MPTCP, which phase it finished in, how many data
packets it sent and the achieved completion time.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig, run_experiment
from repro.sim import Simulator
from repro.sim.units import megabits_per_second
from repro.topology import FatTreeParams, FatTreeTopology
from repro.traffic import PROTOCOL_MMPTCP
from repro.traffic.flowspec import FlowSpec
from repro.traffic.workloads import Workload

SOURCE, DESTINATION = "host-0-0-0", "host-3-1-1"


def main() -> None:
    # 1. A 4-ary FatTree (16 hosts, 20 switches, 1:1 subscription).  MMPTCP's
    #    duplicate-ACK threshold is sized from its equal-cost path count.
    config = ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=None,
        link_rate_bps=megabits_per_second(1000),
        protocol=PROTOCOL_MMPTCP,
        num_subflows=4,
        # The data-volume policy from the paper: switch to 4 MPTCP subflows
        # after ~140 KB in the packet-scatter phase.
        switching_threshold_bytes=140_000,
        arrival_window_s=0.001,
        drain_time_s=10.0,
    )
    topology = FatTreeTopology(Simulator(), FatTreeParams(k=4, link_rate_bps=config.link_rate_bps))
    paths = topology.expected_path_count(topology.node(SOURCE), topology.node(DESTINATION))
    print(f"Topology: {topology}")
    print(f"Equal-cost paths between {SOURCE} and {DESTINATION}: {paths}")

    # 2. One flow: the runner builds the same fabric, opens the connection at
    #    t=0 and records the outcome.
    flow_bytes = 1_000_000
    workload = Workload([
        FlowSpec(0, SOURCE, DESTINATION, flow_bytes, protocol=PROTOCOL_MMPTCP,
                 is_long=True, num_subflows=config.num_subflows),
    ])

    # 3. Run.
    print(f"\nTransferring {flow_bytes} bytes with MMPTCP...")
    result = run_experiment(config, workload=workload)

    # 4. Report.
    (flow,) = result.metrics.flows
    assert flow.completed
    print(f"\nFlow completion time : {flow.completion_time_ms:.2f} ms")
    print(f"Phase switch at      : t={flow.switch_time:.4f} s")
    print(f"Phase at completion  : {flow.phase_at_completion}")
    print(f"Data packets sent    : {flow.data_packets_sent}")
    print(f"Reordered arrivals   : {flow.reordering_events}")
    print(f"Retransmissions      : {flow.retransmitted_packets} packets, "
          f"{flow.rto_events} RTOs, {flow.fast_retransmits} fast retransmits")
    print(f"Simulated events     : {result.events_processed}")


if __name__ == "__main__":
    main()
