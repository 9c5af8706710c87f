"""End hosts (servers).

A host owns one or more interfaces (dual-homed topologies give it two), an
integer address, and a demultiplexing table from local port numbers to
transport endpoints.  Transport endpoints hand fully formed packets to
:meth:`Host.send`, which selects an uplink (by ECMP hash when multi-homed)
and pushes the packet into that interface's queue.

Packet ownership: :meth:`Host.receive` is the end of every delivered packet's
life.  The endpoint's ``on_packet`` may read the packet freely while it runs
but must not retain a reference; as soon as it returns, the host releases the
packet back to the pool (mis-delivered and port-less packets are released
immediately).  Reassembly buffers and statistics therefore only ever store
plain integers extracted from the packet, never the packet itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from repro.net.ecmp import select_among, select_path
from repro.net.link import Interface
from repro.net.node import Node
from repro.net.packet import Packet, release_packet
from repro.sim.engine import Simulator


#: IANA dynamic/private port range used for ephemeral allocation.
EPHEMERAL_PORT_MIN = 49152
EPHEMERAL_PORT_MAX = 65535


class PacketHandler(Protocol):
    """Anything that can accept packets demultiplexed to a local port."""

    def on_packet(self, packet: Packet) -> None:
        """Process an arriving packet."""


class Host(Node):
    """A server attached to the data-centre fabric."""

    kind = "host"

    def __init__(self, simulator: Simulator, name: str, address: int) -> None:
        super().__init__(simulator, name)
        self.address = address
        self._endpoints: Dict[int, PacketHandler] = {}
        self._next_ephemeral_port = EPHEMERAL_PORT_MIN

    # ------------------------------------------------------------------
    # Endpoint management
    # ------------------------------------------------------------------

    def bind(self, port: int, endpoint: PacketHandler) -> None:
        """Register ``endpoint`` to receive packets addressed to ``port``."""
        if port in self._endpoints:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._endpoints[port] = endpoint

    def unbind(self, port: int) -> None:
        """Remove the endpoint bound to ``port`` (missing ports are ignored)."""
        self._endpoints.pop(port, None)

    def allocate_port(self) -> int:
        """Hand out the next unused ephemeral port on this host.

        Ports come from the IANA ephemeral range [49152, 65535] and wrap
        around once the counter reaches the top, skipping ports that are
        still bound.  When every port in the range is bound the host raises
        instead of silently handing out an out-of-range (and therefore
        never-matching) port number.
        """
        span = EPHEMERAL_PORT_MAX - EPHEMERAL_PORT_MIN + 1
        port = self._next_ephemeral_port
        for _ in range(span):
            if port not in self._endpoints:
                self._next_ephemeral_port = (
                    EPHEMERAL_PORT_MIN + (port + 1 - EPHEMERAL_PORT_MIN) % span
                )
                return port
            port = EPHEMERAL_PORT_MIN + (port + 1 - EPHEMERAL_PORT_MIN) % span
        raise RuntimeError(
            f"host {self.name} has exhausted the ephemeral port range "
            f"[{EPHEMERAL_PORT_MIN}, {EPHEMERAL_PORT_MAX}]"
        )

    # ------------------------------------------------------------------
    # Packet I/O
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` out of one of this host's uplinks.

        The caller forfeits the packet: a down NIC or a full queue retires it.
        """
        interfaces = self.interfaces
        if len(interfaces) == 1:
            interfaces[0].send(packet)
            return
        if not interfaces:
            raise RuntimeError(f"host {self.name} has no interfaces")
        # Multi-homed host: pick the uplink by flow hash, exactly as a
        # host-side ECMP bonding driver would.
        index = select_path(packet, len(interfaces), salt=self.address)
        interface = interfaces[index]
        if not interface.up:
            # Bonding drivers fail over to a surviving uplink.
            live = [i for i in range(len(interfaces)) if interfaces[i].up]
            if live:
                interface = interfaces[select_among(packet, live, salt=self.address)]
        interface.send(packet)

    def receive(self, packet: Packet, interface: Optional[Interface]) -> None:
        """Deliver an arriving packet to the endpoint bound to its destination port.

        Whatever happens, the host consumes the packet: it is released to the
        packet pool once the endpoint's synchronous processing is done.
        """
        if packet.dst == self.address:
            endpoint = self._endpoints.get(packet.dst_port)
            if endpoint is not None:
                endpoint.on_packet(packet)
            else:
                probes = self.probes
                if probes.enabled:
                    probes.observe_trace(
                        self.simulator.now,
                        "no_endpoint",
                        node=self.name,
                        port=packet.dst_port,
                        flow_id=packet.flow_id,
                    )
        else:
            # Mis-delivered packet (should not happen with correct routing).
            probes = self.probes
            if probes.enabled:
                probes.observe_trace(
                    self.simulator.now, "misdelivered", node=self.name, flow_id=packet.flow_id
                )
        release_packet(packet)
