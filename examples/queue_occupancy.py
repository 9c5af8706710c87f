#!/usr/bin/env python3
"""Queue build-up during an incast burst: TCP vs MMPTCP's packet scatter.

The paper's introduction blames short-flow deadline misses on "queue
build-ups, buffer pressure and TCP Incast".  This example fires the same
synchronised 16-to-1 burst of 70 KB responses through a FatTree twice —
once with single-path TCP, once with MMPTCP (whose short responses stay in
the packet-scatter phase) — with the ``queue`` probe group on, which
records a switch queue's occupancy each time a packet joins it.  It then
prints where the packets piled up.

Run with:  python examples/queue_occupancy.py
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig
from repro.experiments.incast_study import build_incast_workload_for
from repro.experiments.runner import build_topology, create_flow
from repro.metrics.reporting import render_table
from repro.obs.telemetry import TelemetryRecorder
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.units import megabits_per_second
from repro.traffic import PROTOCOL_MMPTCP, PROTOCOL_TCP

FAN_IN = 16
RESPONSE_BYTES = 70_000
SERIES_PREFIX = "queue.packets/"


def run_burst(protocol: str):
    """Run one synchronised burst; return (per-queue peaks, completed responses).

    The peaks are ``(switch, layer, port, peak packets)`` tuples, one per
    switch output queue that ever held a packet.
    """
    config = ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=4,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.05,
        drain_time_s=2.0,
        protocol=protocol,
        num_subflows=8,
        initial_cwnd_segments=2,
        seed=5,
    )
    simulator = Simulator()
    streams = RandomStreams(config.seed)
    topology = build_topology(config, simulator)
    # One queue sees up to ~800 enqueues here; 4096 samples per series keeps
    # every one of them, so each recorded peak is exact.
    recorder = TelemetryRecorder(groups=("queue",), max_samples_per_series=4096)
    ports = {}
    for switch in topology.switches:
        switch.probes = recorder
        for port, interface in enumerate(switch.interfaces):
            ports[interface.name] = (switch.name, switch.layer, port)
    workload = build_incast_workload_for(config, FAN_IN, RESPONSE_BYTES, protocol)

    instances = []
    for spec in workload.flows:
        instance = create_flow(spec, config, topology, simulator, streams)
        instances.append(instance)
        simulator.schedule_at(spec.start_time, instance.sender.start)

    simulator.run(until=config.horizon_s)
    completed = sum(1 for instance in instances if instance.receiver.complete)
    peaks = [
        (*ports[name[len(SERIES_PREFIX):]], int(max(value for _, value in buffer.samples)))
        for name, buffer in recorder.series.items()
    ]
    return peaks, completed


def main() -> None:
    print(f"Synchronised {FAN_IN}-to-1 incast of {RESPONSE_BYTES // 1000} KB responses "
          f"on a 4-ary FatTree\n")
    rows = []
    details = {}
    for protocol in (PROTOCOL_TCP, PROTOCOL_MMPTCP):
        peaks, completed = run_burst(protocol)
        row = [protocol, f"{completed}/{FAN_IN}"]
        for layer in ("edge", "aggregation", "core"):
            layer_peaks = [peak for _, queue_layer, _, peak in peaks if queue_layer == layer]
            row += [max(layer_peaks, default=0), len(layer_peaks)]
        rows.append(row)
        details[protocol] = sorted(peaks, key=lambda queue: queue[3], reverse=True)

    print(render_table(
        ["protocol", "responses delivered", "edge peak (pkts)", "edge queues",
         "agg peak (pkts)", "agg queues", "core peak (pkts)", "core queues"],
        rows,
    ))
    print("(peak: the deepest queue of the layer; queues: how many of its queues "
          "ever held a packet)")

    print("\nBusiest queues per protocol (switch, port, peak packets):")
    for protocol, peaks in details.items():
        print(f"  {protocol}:")
        for switch, _, port, peak in peaks[:3]:
            print(f"    {switch:22s} port {port}  peak {peak} packets")
    print("\nThe receiver's own edge port is the incast bottleneck for every transport")
    print("(no spraying can widen a single downlink); the difference shows upstream,")
    print("where packet scatter spreads the burst over more edge queues and")
    print("keeps its deepest aggregation and core queues shallower than TCP's.")


if __name__ == "__main__":
    main()
