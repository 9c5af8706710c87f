"""MMPTCP: the hybrid transport protocol the paper introduces.

An :class:`MmptcpConnection` is an MPTCP connection whose life begins in the
**packet-scatter phase**: one subflow, one congestion window, every data
packet stamped with a random source port so ECMP sprays it across all
available paths.  A :class:`~repro.core.phase_switching.SwitchingPolicy`
watches the volume of data handed to the network and/or congestion signals;
when it fires the connection **switches to the MPTCP phase**: it opens the
configured number of standard MPTCP subflows (coupled by LIA), stops
assigning new data to the scatter flow, and lets the scatter flow drain and
deactivate once its window empties — mirroring Section 2 of the paper.

Short flows are expected to finish before the switch ever happens, so they
enjoy the large single window and the burst tolerance of spraying; long
flows spend almost their whole life in MPTCP mode and lose nothing.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.core.packet_scatter import PacketScatterSubflow
from repro.core.phase_switching import DataVolumeSwitching, SwitchingPolicy
from repro.core.reordering import TopologyInformedPolicy
from repro.net.host import Host
from repro.sim.engine import Simulator
from repro.transport.base import TcpConfig
from repro.transport.mptcp import MptcpConnection, MptcpSubflow
from repro.transport.tcp import TcpSender

#: Phase labels.
PHASE_PACKET_SCATTER = "packet_scatter"
PHASE_MPTCP = "mptcp"


class MmptcpConnection(MptcpConnection):
    """Sender side of an MMPTCP connection (packet scatter, then MPTCP).

    The receiver side is a plain :class:`~repro.transport.mptcp.MptcpReceiver`.
    """

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        destination: int,
        destination_port: int,
        total_bytes: int,
        num_subflows: int = 8,
        flow_id: int = 0,
        config: TcpConfig = TcpConfig(),
        switching_policy: Optional[SwitchingPolicy] = None,
        reordering_policy=None,
        path_count_hint: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(
            simulator,
            host,
            destination,
            destination_port,
            total_bytes,
            num_subflows=num_subflows,
            flow_id=flow_id,
            config=config,
            create_subflows=False,
        )
        self.switching_policy = (
            switching_policy if switching_policy is not None else DataVolumeSwitching()
        )
        if reordering_policy is None:
            # Default to the topology-informed threshold the paper proposes;
            # callers that know the real path diversity pass it via
            # ``path_count_hint`` (FatTree addressing makes this a local
            # computation at the sender).
            reordering_policy = TopologyInformedPolicy(
                path_count=path_count_hint if path_count_hint is not None else 8
            )
        self.phase = PHASE_PACKET_SCATTER
        self.switch_time: Optional[float] = None
        self.bytes_in_scatter_phase = 0
        self.scatter_subflow = PacketScatterSubflow(
            self, rng if rng is not None else random.Random(flow_id), reordering_policy
        )
        self.subflows.append(self.scatter_subflow)

    # ------------------------------------------------------------------
    # Phase machinery
    # ------------------------------------------------------------------

    def allocate_chunk(self, subflow: MptcpSubflow) -> Optional[Tuple[int, int]]:
        """Serve data to subflows, excluding the scatter flow after the switch.

        The paper is explicit: once the switch happens, *no more packets are
        put in the initial PS flow*; it only drains (and retransmits) what it
        already carries.
        """
        if self.phase == PHASE_MPTCP and subflow is self.scatter_subflow:
            return None
        return super().allocate_chunk(subflow)

    def _has_data_for(self, subflow: MptcpSubflow) -> bool:
        """The deactivated scatter flow has no stream bytes left to take.

        :meth:`allocate_chunk` refuses it after the switch anyway; answering
        here stops its refill loop before it asks.
        """
        if self.phase == PHASE_MPTCP and subflow is self.scatter_subflow:
            return False
        return super()._has_data_for(subflow)

    def _on_data_allocated(self, subflow: MptcpSubflow, dsn: int, size: int) -> None:
        if self.phase != PHASE_PACKET_SCATTER:
            return
        self.bytes_in_scatter_phase += size
        if self.switching_policy.should_switch_on_data(self.bytes_in_scatter_phase):
            self._switch_to_mptcp(reason="data_volume")

    def _subflow_congestion_event(self, subflow: TcpSender, kind: str) -> None:
        if (
            self.phase == PHASE_PACKET_SCATTER
            and subflow is self.scatter_subflow
            and self.switching_policy.should_switch_on_congestion(kind)
        ):
            self._switch_to_mptcp(reason=f"congestion:{kind}")

    def _switch_to_mptcp(self, reason: str) -> None:
        if self.phase == PHASE_MPTCP:
            return
        self.phase = PHASE_MPTCP
        self.switch_time = self.simulator.now
        if self.probes.enabled:
            self.probes.count("phase.switches")
            self.probes.event(
                "phase.switch",
                self.simulator.now,
                flow_id=self.flow_id,
                reason=reason,
                bytes_in_scatter=self.bytes_in_scatter_phase,
            )
        # Open the MPTCP subflows only if there is still data for them to
        # carry; a flow that is already fully allocated (e.g. a short flow
        # whose last bytes triggered the volume threshold) gains nothing from
        # extra handshakes.
        if not self.all_data_allocated:
            new_subflows = self._create_subflows(self.num_subflows, first_subflow_id=1)
            for subflow in new_subflows:
                subflow.start()
