"""Workload builders.

The paper's evaluation workload (Figure 1 caption): a FatTree in which one
third of the servers run long background flows while the remaining two
thirds send 70 KB short flows whose arrivals follow a Poisson process, all
scheduled over a permutation traffic matrix.  :func:`build_short_long_workload`
reproduces that recipe for an arbitrary topology and protocol; the other
builders cover the roadmap scenarios (incast bursts, hotspots).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.sim.units import kilobytes, megabytes
from repro.traffic.arrivals import poisson_arrivals, synchronized_arrivals
from repro.traffic.flowspec import PROTOCOL_TCP, FlowSpec
from repro.traffic.matrices import hotspot_pairs, permutation_pairs


@dataclass(frozen=True)
class ShortLongWorkloadParams:
    """Parameters of the paper's short-vs-long workload.

    Attributes:
        long_flow_fraction: fraction of servers acting as long-flow senders
            (the paper uses one third).
        short_flow_size_bytes: size of each latency-sensitive flow (70 KB).
        long_flow_size_bytes: size of each background flow; sized so the flow
            keeps transmitting for essentially the whole experiment.
        short_flow_rate_per_sender: Poisson arrival rate (flows/second) at
            each short-flow sender.
        duration_s: interval over which short flows keep arriving.
        max_short_flows: optional cap on the total number of short flows
            (keeps scaled-down runs bounded).
        protocol: transport protocol used by every flow.
        num_subflows: subflow count for MPTCP/MMPTCP flows.
    """

    long_flow_fraction: float = 1.0 / 3.0
    short_flow_size_bytes: int = kilobytes(70)
    long_flow_size_bytes: int = megabytes(50)
    short_flow_rate_per_sender: float = 10.0
    duration_s: float = 1.0
    max_short_flows: Optional[int] = None
    protocol: str = PROTOCOL_TCP
    num_subflows: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.long_flow_fraction < 1:
            raise ValueError("long_flow_fraction must be in [0, 1)")
        if self.short_flow_size_bytes <= 0 or self.long_flow_size_bytes <= 0:
            raise ValueError("flow sizes must be positive")
        if self.short_flow_rate_per_sender < 0:
            raise ValueError("short_flow_rate_per_sender cannot be negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")


@dataclass
class Workload:
    """A fully materialised set of flow specifications."""

    flows: List[FlowSpec] = field(default_factory=list)

    @property
    def short_flows(self) -> List[FlowSpec]:
        """The latency-sensitive flows."""
        return [flow for flow in self.flows if flow.is_short]

    @property
    def long_flows(self) -> List[FlowSpec]:
        """The background, bandwidth-hungry flows."""
        return [flow for flow in self.flows if flow.is_long]

    @property
    def total_bytes(self) -> int:
        """Sum of all flow sizes."""
        return sum(flow.size_bytes for flow in self.flows)

def build_short_long_workload(
    host_names: Sequence[str],
    params: ShortLongWorkloadParams,
    rng: random.Random,
    first_flow_id: int = 1,
) -> Workload:
    """Create the paper's mixed workload over the given hosts.

    The permutation matrix is drawn first; the first ``long_flow_fraction``
    of senders (in shuffled order) become long-flow sources, the rest send a
    Poisson stream of short flows to their permutation partner.
    """
    if len(host_names) < 2:
        raise ValueError("need at least two hosts")
    pairs = permutation_pairs(host_names, rng)
    rng.shuffle(pairs)
    num_long_senders = int(round(len(pairs) * params.long_flow_fraction))
    flow_id = first_flow_id
    workload = Workload()

    # Long background flows start slightly staggered near time zero so their
    # slow starts do not form one synchronised burst.
    for source, destination in pairs[:num_long_senders]:
        start = rng.uniform(0.0, 0.05)
        workload.flows.append(
            FlowSpec(
                flow_id=flow_id,
                source=source,
                destination=destination,
                size_bytes=params.long_flow_size_bytes,
                start_time=start,
                protocol=params.protocol,
                is_long=True,
                num_subflows=params.num_subflows,
            )
        )
        flow_id += 1

    # Short flows: Poisson arrivals at each remaining sender.
    short_specs: List[FlowSpec] = []
    for source, destination in pairs[num_long_senders:]:
        for start in poisson_arrivals(
            params.short_flow_rate_per_sender, params.duration_s, rng
        ):
            short_specs.append(
                FlowSpec(
                    flow_id=0,  # assigned after the optional cap below
                    source=source,
                    destination=destination,
                    size_bytes=params.short_flow_size_bytes,
                    start_time=start,
                    protocol=params.protocol,
                    is_long=False,
                    num_subflows=params.num_subflows,
                )
            )

    short_specs.sort(key=lambda flow: flow.start_time)
    if params.max_short_flows is not None:
        short_specs = short_specs[: params.max_short_flows]
    for spec in short_specs:
        spec.flow_id = flow_id
        flow_id += 1
        workload.flows.append(spec)
    return workload


def build_incast_workload(
    sender_names: Sequence[str],
    receiver_name: str,
    response_size_bytes: int = kilobytes(70),
    start_time: float = 0.0,
    protocol: str = PROTOCOL_TCP,
    num_subflows: int = 8,
    first_flow_id: int = 1,
) -> Workload:
    """A synchronised fan-in: every sender fires one response at the same instant."""
    if not sender_names:
        raise ValueError("need at least one sender")
    workload = Workload()
    arrivals = synchronized_arrivals(len(sender_names), start_time)
    for index, (source, start) in enumerate(zip(sender_names, arrivals)):
        workload.flows.append(
            FlowSpec(
                flow_id=first_flow_id + index,
                source=source,
                destination=receiver_name,
                size_bytes=response_size_bytes,
                start_time=start,
                protocol=protocol,
                is_long=False,
                num_subflows=num_subflows,
            )
        )
    return workload


def build_hotspot_workload(
    host_names: Sequence[str],
    params: ShortLongWorkloadParams,
    rng: random.Random,
    hotspot_fraction: float = 0.1,
    load_fraction: float = 0.5,
    first_flow_id: int = 1,
) -> Workload:
    """Like the short/long workload but with destinations skewed towards hotspots."""
    pairs = hotspot_pairs(
        host_names, rng, hotspot_fraction=hotspot_fraction, load_fraction=load_fraction
    )
    rng.shuffle(pairs)
    num_long_senders = int(round(len(pairs) * params.long_flow_fraction))
    workload = Workload()
    flow_id = first_flow_id
    for index, (source, destination) in enumerate(pairs):
        is_long = index < num_long_senders
        if is_long:
            workload.flows.append(
                FlowSpec(
                    flow_id=flow_id,
                    source=source,
                    destination=destination,
                    size_bytes=params.long_flow_size_bytes,
                    start_time=rng.uniform(0.0, 0.05),
                    protocol=params.protocol,
                    is_long=True,
                    num_subflows=params.num_subflows,
                )
            )
            flow_id += 1
            continue
        for start in poisson_arrivals(
            params.short_flow_rate_per_sender, params.duration_s, rng
        ):
            workload.flows.append(
                FlowSpec(
                    flow_id=flow_id,
                    source=source,
                    destination=destination,
                    size_bytes=params.short_flow_size_bytes,
                    start_time=start,
                    protocol=params.protocol,
                    is_long=False,
                    num_subflows=params.num_subflows,
                )
            )
            flow_id += 1
    return workload
