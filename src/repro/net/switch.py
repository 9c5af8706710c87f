"""Switches with hash-based ECMP forwarding.

A switch holds a forwarding table mapping destination host addresses to the
list of interface indices that lie on *some* shortest path towards that
destination.  When several candidates exist the switch hashes the packet's
5-tuple (salted per switch) to pick one — i.e. flow-level ECMP, exactly the
mechanism MMPTCP's packet-scatter phase exploits by randomising source ports.

Switches are tagged with the topology layer they belong to (``edge``,
``aggregation`` or ``core``) so the metrics module can report per-layer loss
rates as the paper does in Section 3.

Forwarding is the hottest per-packet code in the simulator, so
:meth:`Switch.receive` is deliberately flat: the single-candidate and
healthy-interface common cases run straight-line with no list building, and
the salted flow digest is memoised per switch keyed by the packet's packed
5-tuple (``Packet.flow_bytes``), so every packet of an established flow costs
one dict lookup instead of a 40-byte FNV walk.  The memo is exact — equal
``flow_bytes`` means equal 5-tuple — and therefore produces byte-identical
golden traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.ecmp import fnv1a_bytes, hash_basis
from repro.net.link import Interface
from repro.net.node import Node
from repro.net.packet import Packet, release_packet
from repro.sim.engine import Simulator

LAYER_EDGE = "edge"
LAYER_AGGREGATION = "aggregation"
LAYER_CORE = "core"

#: Bound on the per-switch flow-digest memo.  MMPTCP's packet scatter mints a
#: fresh 5-tuple per data packet, so the memo is cleared (not LRU-evicted —
#: eviction bookkeeping would cost more than the occasional cold restart)
#: once it fills; stable flows re-enter within one packet each.
HASH_CACHE_LIMIT = 8192


class Switch(Node):
    """An output-queued switch with ECMP forwarding."""

    kind = "switch"

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        layer: str = LAYER_EDGE,
        ecmp_salt: int = 0,
    ) -> None:
        super().__init__(simulator, name)
        self.layer = layer
        self._ecmp_salt = ecmp_salt
        self._hash_basis = hash_basis(ecmp_salt)
        #: salted flow digest memo: Packet.flow_bytes -> fnv1a digest
        self._hash_cache: Dict[bytes, int] = {}
        # destination host address -> equal-cost output interface indices
        self.forwarding_table: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Salt management
    # ------------------------------------------------------------------

    @property
    def ecmp_salt(self) -> int:
        """The per-switch salt mixed into every flow hash."""
        return self._ecmp_salt

    @ecmp_salt.setter
    def ecmp_salt(self, salt: int) -> None:
        # Changing the salt invalidates every memoised digest.
        self._ecmp_salt = salt
        self._hash_basis = hash_basis(salt)
        self._hash_cache.clear()

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------

    def install_route(self, destination: int, interface_indices: List[int]) -> None:
        """Install the ECMP next-hop set for ``destination``."""
        if not interface_indices:
            raise ValueError(f"empty next-hop set for destination {destination} on {self.name}")
        self.forwarding_table[destination] = list(interface_indices)

    def remove_route(self, destination: int) -> None:
        """Drop the next-hop set for ``destination`` (used when it becomes unreachable)."""
        self.forwarding_table.pop(destination, None)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def flow_hash_for(self, packet: Packet) -> int:
        """This switch's salted flow digest for ``packet`` (memoised).

        Identical to ``ecmp_hash(packet, salt=self.ecmp_salt)``; the memo key
        is the packed 5-tuple, so two packets collide only when they carry
        exactly the same flow identity — the memo can never misroute.
        """
        key = packet.flow_bytes
        if key is None:
            key = packet.flow_key()
        cache = self._hash_cache
        digest = cache.get(key)
        if digest is None:
            if len(cache) >= HASH_CACHE_LIMIT:
                cache.clear()
            digest = fnv1a_bytes(key, self._hash_basis)
            cache[key] = digest
        return digest

    def _failover_interface(self, packet: Packet, candidates: List[int]) -> Optional[Interface]:
        """Re-hash over the live members of the next-hop group (rare path).

        This is the safety net for the window between a link going down and
        the routing tables being rebuilt around it.
        """
        live = [index for index in candidates if self.interfaces[index].up]
        if not live:
            return None
        if len(live) == 1:
            return self.interfaces[live[0]]
        return self.interfaces[live[self.flow_hash_for(packet) % len(live)]]

    def receive(self, packet: Packet, interface: Optional[Interface]) -> None:
        """Forward an arriving packet towards its destination."""
        candidates = self.forwarding_table.get(packet.dst)
        if candidates:
            # Common case, kept flat: one candidate (downlinks) or a healthy
            # hashed choice (uplinks) — no list building, no extra calls.
            if len(candidates) == 1:
                out_interface = self.interfaces[candidates[0]]
            else:
                out_interface = self.interfaces[
                    candidates[self.flow_hash_for(packet) % len(candidates)]
                ]
            if not out_interface.up:
                out_interface = self._failover_interface(packet, candidates)
            if out_interface is not None:
                out_interface.send(packet)
                return
        probes = self.probes
        if probes.enabled:
            probes.observe_trace(self.simulator.now, "unroutable", node=self.name, dst=packet.dst)
        # No route (or no live next hop): the fabric consumed the packet.
        release_packet(packet)
