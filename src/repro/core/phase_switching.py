"""Phase-switching policies.

MMPTCP must decide *when* to abandon the packet-scatter phase and open its
MPTCP subflows.  Switching too early re-creates MPTCP's thin-window problem
for short flows; switching too late keeps long flows on a single congestion
window and sacrifices multi-path throughput.  Section 2 of the paper puts
forward two strategies, both implemented here together with a hybrid and a
"never switch" control used by the ablation benchmarks:

* **Data volume** — switch once a configured number of bytes has been handed
  to the network.  The paper's early evaluation found this does not hurt
  long flows because the freshly opened subflows grow to the access-link
  capacity within a few RTTs.
* **Congestion event** — switch the first time congestion is inferred (a
  fast retransmission or a retransmission timeout on the scatter flow).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transport.cc.base import LOSS_FAST_RETRANSMIT, LOSS_TIMEOUT

#: A volume threshold just above the canonical 70 KB short-flow size, so that
#: short flows finish inside the packet-scatter phase while long flows switch
#: to MPTCP almost immediately (in relative terms).
DEFAULT_VOLUME_THRESHOLD_BYTES = 100 * 1400


class SwitchingPolicy:
    """Decides when an MMPTCP connection leaves the packet-scatter phase."""

    name = "base"

    def should_switch_on_data(self, bytes_handed_to_network: int) -> bool:
        """Consulted every time new data is allocated to the scatter flow."""
        return False

    def should_switch_on_congestion(self, kind: str) -> bool:
        """Consulted on every congestion event (``fast_retransmit`` or ``timeout``)."""
        return False

    def describe(self) -> str:
        """Human-readable parameterisation, used in experiment reports."""
        return self.name


@dataclass
class DataVolumeSwitching(SwitchingPolicy):
    """Switch after ``threshold_bytes`` have been allocated to the scatter flow."""

    threshold_bytes: int = DEFAULT_VOLUME_THRESHOLD_BYTES

    def __post_init__(self) -> None:
        if self.threshold_bytes <= 0:
            raise ValueError("threshold_bytes must be positive")
        self.name = "data_volume"

    def should_switch_on_data(self, bytes_handed_to_network: int) -> bool:
        return bytes_handed_to_network >= self.threshold_bytes

    def describe(self) -> str:
        return f"data_volume({self.threshold_bytes} B)"


class CongestionEventSwitching(SwitchingPolicy):
    """Switch at the first inferred congestion event on the scatter flow.

    Either loss signal is the trigger: a fast retransmission or a
    retransmission timeout.
    """

    name = "congestion_event"

    def should_switch_on_congestion(self, kind: str) -> bool:
        return kind in (LOSS_FAST_RETRANSMIT, LOSS_TIMEOUT)

    def describe(self) -> str:
        return "congestion_event(fast_retransmit|timeout)"


@dataclass
class HybridSwitching(SwitchingPolicy):
    """Switch on whichever comes first: the volume threshold or congestion."""

    threshold_bytes: int = DEFAULT_VOLUME_THRESHOLD_BYTES

    def __post_init__(self) -> None:
        if self.threshold_bytes <= 0:
            raise ValueError("threshold_bytes must be positive")
        self.name = "hybrid"

    def should_switch_on_data(self, bytes_handed_to_network: int) -> bool:
        return bytes_handed_to_network >= self.threshold_bytes

    def should_switch_on_congestion(self, kind: str) -> bool:
        return True

    def describe(self) -> str:
        return f"hybrid({self.threshold_bytes} B or congestion)"


class NeverSwitch(SwitchingPolicy):
    """Remain in the packet-scatter phase forever (pure packet-scatter baseline)."""

    name = "never"

    def describe(self) -> str:
        return "never (pure packet scatter)"
