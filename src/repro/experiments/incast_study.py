"""Incast (fan-in burst) studies, including the multi-homing roadmap item.

The paper's introduction names TCP Incast as one of the reasons short flows
miss their deadlines, and its roadmap argues that (a) the packet-scatter
phase absorbs bursts by spreading them over many queues and (b) multi-homed
topologies add access-layer paths and therefore burst tolerance.  This
module sweeps the fan-in degree of a synchronised burst for any set of
(protocol, topology) combinations and reports the completion-time and RTO
statistics of the responses (execution:
:func:`repro.experiments.study.run_study`; pass both ``fattree`` and
``dualhomed`` as ``topologies`` for the multi-homing comparison).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.config import TOPOLOGY_FATTREE, ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.study import DEFAULT_FAN_INS
from repro.sim.randomness import RandomStreams
from repro.sim.units import kilobytes
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP
from repro.traffic.workloads import Workload, build_incast_workload


def build_incast_workload_for(
    config: ExperimentConfig,
    fan_in: int,
    response_bytes: int,
    protocol: str,
    start_time: float = 0.01,
    receiver: Optional[str] = None,
) -> Workload:
    """A synchronised ``fan_in``-to-1 burst over the fabric described by ``config``.

    The receiver and the senders are drawn from the fabric's hosts with the
    configuration seed, so every protocol (and every topology of the same
    size) sees the same logical burst.  Pass ``receiver`` to pin the burst
    target to a named host instead — fault-injection scenarios use this to
    aim link failures at the receiver's ingress.
    """
    from repro.experiments.runner import fabric_host_names

    if fan_in < 1:
        raise ValueError("fan_in must be at least 1")
    hosts = fabric_host_names(config)
    if fan_in >= len(hosts):
        raise ValueError(f"fan_in {fan_in} needs more hosts than the fabric has ({len(hosts)})")
    rng = RandomStreams(config.seed).stream("incast")
    if receiver is None:
        receiver = rng.choice(hosts)
    elif receiver not in hosts:
        raise ValueError(f"receiver {receiver!r} is not a host of this fabric")
    senders = rng.sample([name for name in hosts if name != receiver], fan_in)
    return build_incast_workload(
        senders,
        receiver,
        response_size_bytes=response_bytes,
        start_time=start_time,
        protocol=protocol,
        num_subflows=config.num_subflows,
    )


def plan(
    config: ExperimentConfig,
    protocols: Sequence[str] = (PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
    fan_ins: Sequence[int] = DEFAULT_FAN_INS,
    response_bytes: int = kilobytes(70),
    topologies: Sequence[str] = (TOPOLOGY_FATTREE,),
) -> List[RunSpec]:
    """The synchronised burst for every (topology, fan-in, protocol) combination.

    The incast workload is rebuilt inside each worker from ``(config,
    fan_in, ...)`` — a deterministic function of the seed — so the sweep's
    output is identical for any worker count and ordered exactly as the
    nested (topology, fan-in, protocol) loops visit it.
    """
    if not protocols or not fan_ins or not topologies:
        raise ValueError("need at least one protocol, one fan-in and one topology")
    specs: List[RunSpec] = []
    for topology_kind in topologies:
        for fan_in in fan_ins:
            for protocol in protocols:
                specs.append(
                    RunSpec(
                        index=len(specs),
                        config=config.with_updates(topology=topology_kind, protocol=protocol),
                        workload_factory=build_incast_workload_for,
                        workload_args=(fan_in, response_bytes, protocol),
                        tag={
                            "topology": topology_kind,
                            "protocol": protocol,
                            "fan_in": fan_in,
                            "response_bytes": response_bytes,
                        },
                    )
                )
    return specs
