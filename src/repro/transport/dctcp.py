"""DCTCP endpoints.

DCTCP = TCP NewReno machinery + ECN-capable packets + the
:class:`~repro.transport.cc.dctcp_alpha.DctcpController` window policy +
a receiver that echoes Congestion-Experienced marks.  It needs ECN marking
enabled in the switches (use :class:`repro.net.queues.EcnQueue`), which is
one of the deployment requirements the paper holds against it.

Packet-pool discipline is inherited from :class:`TcpSender` /
:class:`TcpReceiver`: data packets and ACK echoes are pool-acquired, and the
ECN bits a queue sets on a recycled packet are always freshly cleared state
(``Packet.__init__`` rewrites every field on reacquisition).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.net.host import Host
from repro.sim.engine import Simulator
from repro.transport.base import TcpConfig
from repro.transport.cc.dctcp_alpha import DctcpController
from repro.transport.receiver import TcpReceiver
from repro.transport.tcp import TcpSender


class DctcpSender(TcpSender):
    """A TCP sender with ECN-capable packets and DCTCP congestion control."""

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        destination: int,
        destination_port: int,
        total_bytes: int,
        flow_id: int = 0,
        config: TcpConfig = TcpConfig(),
        dctcp_gain: float = 1.0 / 16.0,
        local_port: Optional[int] = None,
        on_complete: Optional[Callable[["TcpSender"], None]] = None,
    ) -> None:
        ecn_config = config if config.ecn_enabled else replace(config, ecn_enabled=True)
        super().__init__(
            simulator,
            host,
            destination,
            destination_port,
            total_bytes,
            flow_id=flow_id,
            config=ecn_config,
            congestion_control=DctcpController(gain=dctcp_gain),
            local_port=local_port,
            on_complete=on_complete,
        )

    @property
    def alpha(self) -> float:
        """Current DCTCP congestion estimate (fraction of marked bytes, smoothed)."""
        controller = self.cc
        assert isinstance(controller, DctcpController)
        return controller.alpha


class DctcpReceiver(TcpReceiver):
    """A TCP receiver that always echoes ECN marks back to the sender."""

    def __init__(
        self,
        simulator: Simulator,
        host: Host,
        local_port: Optional[int] = None,
        flow_id: int = 0,
        expected_bytes: Optional[int] = None,
        on_complete: Optional[Callable[[TcpReceiver], None]] = None,
    ) -> None:
        super().__init__(
            simulator,
            host,
            local_port=local_port,
            flow_id=flow_id,
            expected_bytes=expected_bytes,
            on_complete=on_complete,
            echo_ecn=True,
        )
