"""The packet-scatter (PS) subflow.

During MMPTCP's first phase all data travels over a *single* TCP congestion
window, but every data packet is stamped with a fresh random source port.
Hash-based ECMP in the switches therefore sends consecutive packets down
different equal-cost paths — the spraying is initiated entirely at the end
host, with no switch modification, exactly as Section 2 of the paper
describes.  Acknowledgements still flow to the sender's canonical port (the
receiver learns it from the SYN), so the sender sees one coherent ACK
stream.

The benefits the paper claims follow directly:

* a short flow keeps one *large* window, so a lost packet can almost always
  be repaired by fast retransmit instead of a 200 ms timeout;
* the flow's packets never pile onto a single congested core path, so bursts
  are absorbed by many queues at once.

The cost is reordering, handled by the policies in
:mod:`repro.core.reordering`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.transport.cc.base import NewRenoController
from repro.transport.mptcp import MptcpSubflow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.mptcp import MptcpConnection

#: Source ports drawn for scattered packets, inclusive.  The range only needs
#: to be wide enough that the ECMP hash decorrelates consecutive packets.
SCATTER_PORT_LOW = 32768
SCATTER_PORT_HIGH = 65535


class PacketScatterSubflow(MptcpSubflow):
    """Subflow 0 of an MMPTCP connection: single window, sprayed packets."""

    def __init__(
        self, connection: "MptcpConnection", rng: random.Random, reordering_policy
    ) -> None:
        self._rng = rng
        super().__init__(
            connection,
            0,
            congestion_control=NewRenoController(),
            reordering_policy=reordering_policy,
        )

    # ------------------------------------------------------------------

    def _data_source_port(self) -> int:
        """A fresh random source port for every data packet (the scatter)."""
        return self._rng.randint(SCATTER_PORT_LOW, SCATTER_PORT_HIGH)
