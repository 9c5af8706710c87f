"""Shared helpers for the test suite.

These used to live in ``tests/conftest.py``, but importing them as
``from conftest import ...`` is fragile: any other ``conftest.py`` on
``sys.path`` (the benchmark suite has one) can win the bare ``conftest``
module name and shadow the helpers.  Tests import this module instead;
``tests/conftest.py`` only defines fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.units import megabits_per_second, microseconds
from repro.topology.simple import TwoHostTopology
from repro.transport.base import TcpConfig
from repro.transport.receiver import TcpReceiver
from repro.transport.tcp import TcpSender

#: A fast-but-realistic config used across transport tests: small initial
#: window so window growth is observable, conventional 200 ms min RTO.
TEST_TCP_CONFIG = TcpConfig(mss=1000, initial_cwnd_segments=2)


@dataclass
class TcpTransferHarness:
    """A single TCP transfer over a two-host topology, ready to run."""

    simulator: Simulator
    topology: TwoHostTopology
    sender: TcpSender
    receiver: TcpReceiver

    def run(self, until: float = 10.0) -> None:
        """Start the transfer and run the event loop."""
        self.sender.start()
        self.simulator.run(until=until)


def make_tcp_transfer(
    size_bytes: int,
    link_rate_bps: float = megabits_per_second(100),
    link_delay_s: float = microseconds(50),
    queue_capacity_packets: int = 100,
    config: Optional[TcpConfig] = None,
) -> TcpTransferHarness:
    """Build a sender/receiver pair on a dedicated two-host topology."""
    simulator = Simulator()
    topology = TwoHostTopology(
        simulator,
        link_rate_bps=link_rate_bps,
        link_delay_s=link_delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=queue_capacity_packets),
    )
    tcp_config = config if config is not None else TEST_TCP_CONFIG
    receiver = TcpReceiver(
        simulator, topology.receiver, local_port=5001, flow_id=1, expected_bytes=size_bytes
    )
    sender = TcpSender(
        simulator,
        topology.sender,
        destination=topology.receiver.address,
        destination_port=5001,
        total_bytes=size_bytes,
        flow_id=1,
        config=tcp_config,
    )
    return TcpTransferHarness(simulator, topology, sender, receiver)


# ---------------------------------------------------------------------------
# Max-min oracle
# ---------------------------------------------------------------------------

Key = TypeVar("Key")

#: Copied, like the function below, so that the oracle shares no code with
#: the solver it checks.
_REFERENCE_SATURATION_EPSILON = 1e-9


def reference_max_min_rates(
    capacities: Mapping[str, float],
    paths: Mapping[Key, Sequence[str]],
    weights: Optional[Mapping[Key, float]] = None,
) -> Dict[Key, float]:
    """The from-scratch progressive-filling solve, kept as a test oracle.

    This is the body ``repro.sim.fluid.max_min_rates`` had before the
    stateful :class:`~repro.sim.fluid.MaxMinSolver` replaced it: it rebuilds
    its whole participant/link index on every call and accumulates every
    float left to right in sorted key order.  The solver must return
    ``float.hex``-equal rates (``tests/test_fluid.py``); nothing under
    ``src/`` may import it.
    """
    link_sets: Dict[Key, Tuple[str, ...]] = {}
    rates: Dict[Key, float] = {}
    remaining: Dict[str, float] = {}
    for key in sorted(paths):
        links = tuple(dict.fromkeys(paths[key]))
        if not links:
            raise ValueError(f"participant {key!r} has an empty path")
        for link in links:
            if link not in remaining:
                if link not in capacities:
                    raise ValueError(f"participant {key!r} crosses unknown link {link!r}")
                remaining[link] = max(0.0, float(capacities[link]))
        link_sets[key] = links
        rates[key] = 0.0

    weight_of: Dict[Key, float] = {}
    for key in sorted(link_sets):
        weight = 1.0 if weights is None else float(weights[key])
        if weight <= 0:
            raise ValueError(f"participant {key!r} has non-positive weight {weight!r}")
        weight_of[key] = weight

    # Participants whose path crosses a dead link never receive bandwidth.
    active = [
        key
        for key in sorted(link_sets)
        if all(remaining[link] > 0.0 for link in link_sets[key])
    ]

    while active:
        # Aggregate unfrozen weight per link, then find the link that
        # saturates first when every unfrozen participant grows its rate by
        # ``weight * increment``.
        link_weight: Dict[str, float] = {}
        for key in active:
            weight = weight_of[key]
            for link in link_sets[key]:
                link_weight[link] = link_weight.get(link, 0.0) + weight
        bottleneck = ""
        increment = -1.0
        for link in sorted(link_weight):
            share = remaining[link] / link_weight[link]
            if increment < 0.0 or share < increment:
                increment = share
                bottleneck = link

        saturated = set()
        for link in sorted(link_weight):
            remaining[link] -= increment * link_weight[link]
            tolerance = _REFERENCE_SATURATION_EPSILON * max(1.0, float(capacities[link]))
            if remaining[link] <= tolerance:
                remaining[link] = 0.0
                saturated.add(link)
        # The arg-min link is saturated by construction; force it in case
        # round-off left a residual just above the tolerance.
        saturated.add(bottleneck)

        still_active = []
        for key in active:
            rates[key] += increment * weight_of[key]
            if not saturated.isdisjoint(link_sets[key]):
                continue
            still_active.append(key)
        active = still_active

    return rates


# ---------------------------------------------------------------------------
# Receive-buffer oracle
# ---------------------------------------------------------------------------


def reference_insert_segment(
    segments: Sequence[Tuple[int, int]], start: int, end: int
) -> Tuple[List[Tuple[int, int]], int]:
    """The linear out-of-order insert, kept as a test oracle.

    This is the body ``ReceiveBuffer._insert_segment`` had before it became a
    bisect plus a slice assignment: it walks and rebuilds the whole sorted,
    disjoint, non-adjacent range list per arrival.  Returns the new list and
    the duplicate bytes the arrival carried; nothing under ``src/`` may
    import it.
    """
    merged: List[Tuple[int, int]] = []
    duplicate_bytes = 0
    placed = False
    for seg_start, seg_end in segments:
        if seg_end < start:
            merged.append((seg_start, seg_end))
        elif seg_start > end:
            if not placed:
                merged.append((start, end))
                placed = True
            merged.append((seg_start, seg_end))
        else:
            # Overlapping or adjacent: merge into the candidate range.
            overlap = min(seg_end, end) - max(seg_start, start)
            if overlap > 0:
                duplicate_bytes += overlap
            start = min(start, seg_start)
            end = max(end, seg_end)
    if not placed:
        merged.append((start, end))
    merged.sort()
    return merged, duplicate_bytes
