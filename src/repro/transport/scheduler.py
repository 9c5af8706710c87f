"""MPTCP data schedulers.

The MPTCP connection keeps a single connection-level byte stream and hands
chunks of it to subflows.  Allocation is *demand driven*: a subflow asks for
data whenever its congestion window has room.  The scheduler decides whether
that demand is served immediately (FCFS-style policies) or withheld so the
chunk can go to a preferred subflow instead (policy schedulers such as
round-robin and lowest-RTT).

The distinction matters because allocation here is irrevocable: once a DSN
range is mapped onto a subflow there is no reinjection, so a chunk spilled
onto a slow path stays there.  Policy schedulers are therefore *strict*:
only the head of :meth:`SubflowScheduler.order` may map the next chunk, and
every other subflow's demand is refused — even while the head's window is
full.  The connection's pump loop (``MptcpConnection._pump_scheduler``)
serves the head whenever a window-opening event fires anywhere, which keeps
the policy live without ever letting a chunk leak to a less preferred path.

Schedulers are registered by name in :data:`SCHEDULERS` and built with
:func:`make_scheduler`; the names are what ``ExperimentConfig.scheduler``
and the CLI accept.  ``fcfs`` reproduces the historical first-come
first-served allocation byte-for-byte and is the default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.mptcp import MptcpSubflow


class SubflowScheduler:
    """Base class: decides which subflow receives the next chunk of the stream."""

    name = "base"

    #: Demand-driven schedulers serve whichever subflow asks first (the
    #: classic FCFS behaviour); the connection never runs its pump loop for
    #: them.  Policy schedulers (``demand_driven = False``) instead grant a
    #: chunk only to the head of :meth:`order`; everyone else waits.
    demand_driven = False

    #: Duplicating schedulers (``redundant``) map every unacknowledged chunk
    #: onto *every* subflow; the connection switches to per-subflow cursors
    #: over the stream instead of a single shared allocation frontier.
    duplicates = False

    def order(self, subflows: Sequence["MptcpSubflow"]) -> List["MptcpSubflow"]:
        """Return the subflows in preference order (most preferred first)."""
        raise NotImplementedError

    def chunk_assigned(
        self, subflow: "MptcpSubflow", subflows: Sequence["MptcpSubflow"]
    ) -> None:
        """Hook: ``subflow`` consumed one chunk (rotation bookkeeping)."""


def _by_subflow_id(subflows: Sequence["MptcpSubflow"]) -> List["MptcpSubflow"]:
    return sorted(subflows, key=lambda subflow: subflow.subflow_id)


class FcfsScheduler(SubflowScheduler):
    """First-come first-served: every requesting subflow is granted data.

    This is the historical allocation order of the library (and therefore
    the default): subflows pull chunks in the order their window-opening
    events happen to fire, with no connection-level preference.
    """

    name = "fcfs"
    demand_driven = True

    def order(self, subflows: Sequence["MptcpSubflow"]) -> List["MptcpSubflow"]:
        return _by_subflow_id(subflows)


class RoundRobinScheduler(SubflowScheduler):
    """Rotate through subflows so allocation is spread evenly.

    The rotation point advances only when a subflow actually consumes a
    chunk — not once per ``order()`` call — so repeated consultations
    cannot skew the rotation.  Under strict dispatch the stream waits for
    the subflow whose turn it is, which reproduces round robin's classic
    head-of-line blocking on heterogeneous paths.
    """

    name = "round_robin"

    def __init__(self) -> None:
        #: subflow_id of the last subflow that consumed a chunk, or None
        #: before any allocation.
        self._last_consumer: int | None = None

    def order(self, subflows: Sequence["MptcpSubflow"]) -> List["MptcpSubflow"]:
        if not subflows:
            return []
        ordered = _by_subflow_id(subflows)
        if self._last_consumer is None:
            return ordered
        for index, subflow in enumerate(ordered):
            if subflow.subflow_id > self._last_consumer:
                return ordered[index:] + ordered[:index]
        # Every id is <= the last consumer's: wrap back to the lowest id.
        return ordered

    def chunk_assigned(
        self, subflow: "MptcpSubflow", subflows: Sequence["MptcpSubflow"]
    ) -> None:
        self._last_consumer = subflow.subflow_id


class LowestRttScheduler(SubflowScheduler):
    """Prefer the subflow with the smallest smoothed RTT.

    The handshake round-trip seeds every subflow's estimate, so the genuinely
    shortest path wins from the first chunk; as its queue builds its smoothed
    RTT inflates and the preference shifts, which is what lets longer paths
    take over under load.  Ties break deterministically on ``subflow_id`` so
    traces stay stable.
    """

    name = "lowest_rtt"

    def order(self, subflows: Sequence["MptcpSubflow"]) -> List["MptcpSubflow"]:
        return sorted(
            subflows,
            key=lambda subflow: (subflow.rto_estimator.smoothed_rtt, subflow.subflow_id),
        )


class RedundantScheduler(SubflowScheduler):
    """Duplicate every unacknowledged chunk across all subflows.

    Each subflow walks its own cursor over the stream, skipping data that is
    already data-level acknowledged, so a chunk lost on one path is usually
    already in flight on another — trading goodput for loss resilience
    (the SRMCA-style resilient multipath variant).
    """

    name = "redundant"
    demand_driven = True
    duplicates = True

    def order(self, subflows: Sequence["MptcpSubflow"]) -> List["MptcpSubflow"]:
        return _by_subflow_id(subflows)


#: Registry of scheduler names accepted by ``ExperimentConfig.scheduler``.
SCHEDULERS: Dict[str, Type[SubflowScheduler]] = {
    FcfsScheduler.name: FcfsScheduler,
    RoundRobinScheduler.name: RoundRobinScheduler,
    LowestRttScheduler.name: LowestRttScheduler,
    RedundantScheduler.name: RedundantScheduler,
}


def scheduler_names() -> tuple:
    """The scheduler names, sorted (for CLI choices and docs)."""
    return tuple(sorted(SCHEDULERS))


def make_scheduler(name: str) -> SubflowScheduler:
    """Build a fresh scheduler instance by name.

    Schedulers are stateful (round-robin rotation), so every connection must
    receive its own instance.
    """
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {scheduler_names()}"
        ) from None
