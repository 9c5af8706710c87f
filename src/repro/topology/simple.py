"""Small synthetic topologies used by tests, examples and micro-benchmarks.

These are not part of the paper's evaluation; they exist so that transport
behaviour (window growth, fast retransmit, RTO, MPTCP coupling) can be
exercised and asserted on in isolation, with a single bottleneck whose
capacity and buffering are known exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import QueueFactory
from repro.net.switch import LAYER_CORE, LAYER_EDGE
from repro.sim.engine import Simulator
from repro.sim.units import megabits_per_second, microseconds
from repro.topology.base import Topology


class TwoHostTopology(Topology):
    """Two hosts joined by a single switch — the smallest routable network."""

    def __init__(
        self,
        simulator: Simulator,
        link_rate_bps: float = megabits_per_second(100),
        link_delay_s: float = microseconds(50),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        switch = self.add_switch("switch-0", LAYER_EDGE)
        self.sender = self.add_host("host-a", 0)
        self.receiver = self.add_host("host-b", 1)
        self.connect_nodes(self.sender, switch, link_rate_bps, link_delay_s, queue_factory)
        self.connect_nodes(self.receiver, switch, link_rate_bps, link_delay_s, queue_factory)
        self.build_routes()


class DumbbellTopology(Topology):
    """``pairs`` senders and receivers sharing one bottleneck link.

    The bottleneck runs between the two switches; access links are faster so
    that congestion happens exactly where expected.
    """

    def __init__(
        self,
        simulator: Simulator,
        pairs: int = 2,
        bottleneck_rate_bps: float = megabits_per_second(100),
        access_rate_bps: float = megabits_per_second(1000),
        link_delay_s: float = microseconds(50),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        if pairs < 1:
            raise ValueError("a dumbbell needs at least one sender/receiver pair")
        left_switch = self.add_switch("switch-left", LAYER_EDGE)
        right_switch = self.add_switch("switch-right", LAYER_EDGE)
        self.connect_nodes(
            left_switch, right_switch, bottleneck_rate_bps, link_delay_s, queue_factory
        )
        self.senders = []
        self.receivers = []
        for index in range(pairs):
            sender = self.add_host(f"sender-{index}", index)
            receiver = self.add_host(f"receiver-{index}", 1000 + index)
            self.connect_nodes(sender, left_switch, access_rate_bps, link_delay_s, queue_factory)
            self.connect_nodes(
                receiver, right_switch, access_rate_bps, link_delay_s, queue_factory
            )
            self.senders.append(sender)
            self.receivers.append(receiver)
        self.build_routes()


class IncastTopology(Topology):
    """``fan_in`` senders and one receiver on a single switch.

    The receiver's downlink is the incast bottleneck; its queue overflows when
    enough synchronised senders fire at once, which is the TCP-incast pattern
    the paper's introduction describes.
    """

    def __init__(
        self,
        simulator: Simulator,
        fan_in: int = 8,
        link_rate_bps: float = megabits_per_second(100),
        link_delay_s: float = microseconds(50),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        if fan_in < 1:
            raise ValueError("an incast topology needs at least one sender")
        switch = self.add_switch("switch-0", LAYER_EDGE)
        self.receiver = self.add_host("receiver", 0)
        self.connect_nodes(self.receiver, switch, link_rate_bps, link_delay_s, queue_factory)
        self.senders = []
        for index in range(fan_in):
            sender = self.add_host(f"sender-{index}", index + 1)
            self.connect_nodes(sender, switch, link_rate_bps, link_delay_s, queue_factory)
            self.senders.append(sender)
        self.build_routes()


class TwoPathTopology(Topology):
    """Two hosts connected through two disjoint switch paths.

    The smallest topology on which ECMP path diversity, packet scatter and
    MPTCP sub-flow spreading are observable.
    """

    def __init__(
        self,
        simulator: Simulator,
        paths: int = 2,
        link_rate_bps: float = megabits_per_second(100),
        link_delay_s: float = microseconds(50),
        queue_factory: Optional[QueueFactory] = None,
    ) -> None:
        super().__init__(simulator)
        if paths < 1:
            raise ValueError("need at least one path")
        self.sender = self.add_host("host-a", 0)
        self.receiver = self.add_host("host-b", 1)
        ingress = self.add_switch("ingress", LAYER_EDGE)
        egress = self.add_switch("egress", LAYER_EDGE)
        self.connect_nodes(self.sender, ingress, link_rate_bps, link_delay_s, queue_factory)
        self.connect_nodes(self.receiver, egress, link_rate_bps, link_delay_s, queue_factory)
        self.core_switches = []
        for index in range(paths):
            core = self.add_switch(f"path-{index}", LAYER_CORE)
            self.connect_nodes(ingress, core, link_rate_bps, link_delay_s, queue_factory)
            self.connect_nodes(core, egress, link_rate_bps, link_delay_s, queue_factory)
            self.core_switches.append(core)
        self.build_routes()
