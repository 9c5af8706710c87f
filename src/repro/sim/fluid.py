"""Deterministic (weighted) max-min fair-share allocation.

This is the rate solver at the heart of the flow-level fidelity tier
(:mod:`repro.flowlevel`): every active subflow is a *participant* with a
fixed set of directed links (its path) and a positive weight, and the
allocation is the classic progressive-filling one — raise every unfrozen
participant's rate in proportion to its weight until some link saturates,
freeze the participants crossing that link, repeat.  The result is the
unique weighted max-min fair allocation for unbounded demands.

Weights are how MPTCP-style *coupling* is approximated: a multipath flow
splits weight ``1/k`` over its ``k`` subflow paths, so at a bottleneck link
shared by all of its subflows (a host's access link, say) the whole flow
weighs exactly as much as a single-path TCP flow — the fairness goal of
coupled congestion control — while still being able to fill several
disjoint paths.

Determinism: every float accumulation walks its terms in sorted key (or
sorted link) order, one addition at a time, so equal inputs produce
bit-equal outputs on any platform, in any process and for any history of
:meth:`MaxMinSolver.add` / :meth:`MaxMinSolver.remove` calls that led to
them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import reduce
from itertools import filterfalse
from operator import add
from typing import Dict, Generic, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, TypeVar

Key = TypeVar("Key")
#: A directed link's name: any hashable, mutually sortable value (the unit
#: tests use strings, the engine ``(tail, head)`` node-name pairs).
Link = Hashable

#: Relative tolerance (to a link's capacity) below which a link's residual
#: capacity counts as zero.  Progressive filling drives the bottleneck
#: link's residual to exactly zero in real arithmetic; this absorbs the
#: float round-off of ``remaining - (remaining / weight) * weight``.
_SATURATION_EPSILON = 1e-9


class _LinkState:
    """One link of the index, with its scratch fields for the solve in progress."""

    __slots__ = ("name", "members", "member_weight", "unfrozen", "weight", "remaining", "tolerance")

    def __init__(self, name: Link) -> None:
        self.name = name
        #: Keys of the participants crossing the link, sorted.
        self.members: list = []
        #: Summed weight of ``members``; ``None`` after a membership change.
        self.member_weight: Optional[float] = None
        #: Keys of the participants not yet frozen (a superset between
        #: re-sums), and their summed weight.
        self.unfrozen: list = self.members
        self.weight = 0.0
        #: Capacity still unallocated, and the residual that counts as none.
        self.remaining = 0.0
        self.tolerance = 0.0


class MaxMinSolver(Generic[Key]):
    """Weighted max-min fair rates over a persistent participant/link index.

    Participants are registered once (:meth:`add`) and unregistered once
    (:meth:`remove`); every :meth:`max_min_rates` call in between solves
    from the index instead of rebuilding it.  The index holds what a solve
    needs, in the order it needs it: per participant its de-duplicated
    links and its weight, per link the keys of the participants crossing it
    **in sorted key order**.

    Bit-exactness: a solve performs the float operations of the textbook
    from-scratch progressive filling (``reference_max_min_rates`` in
    ``tests/support.py``) in the same order, so its rates are ``float.hex``
    equal to that oracle's and stored artifacts do not depend on which of
    the two produced them.  Two facts make that possible without touching
    every participant in every round:

    * a link's unfrozen weight is ``0.0 + w1 + w2 + ...`` over its unfrozen
      participants in sorted key order — a walk of its member list — and it
      changes only when one of *its* participants freezes, so a round
      re-sums just the links its newly frozen participants cross (and a
      solve starts from the sums the membership last produced);
    * a participant's rate is ``0.0 + inc1*w + inc2*w + ...`` up to the
      round it freezes in, the same for every participant of weight ``w``,
      so one running level per distinct weight stands in for the
      per-participant accumulation and a participant reads its level when
      it freezes.

    Left-to-right accumulation is spelled ``reduce(add, ...)``: builtin
    ``sum()`` compensates float additions from CPython 3.12 on, which would
    make the last bit depend on the interpreter version.
    """

    def __init__(self) -> None:
        self._links_of: Dict[Key, Tuple[_LinkState, ...]] = {}
        self._weight_of: Dict[Key, float] = {}
        #: The links at least one participant crosses, by name and sorted.
        self._links: Dict[Link, _LinkState] = {}
        self._link_order: List[Link] = []
        #: Link → keys of the participants crossing it, sorted; links nobody
        #: crosses have no entry.  Callers may read it, never mutate it.
        self.members: Dict[Link, List[Key]] = {}
        #: Participant key → rate from the latest solve (0.0 for a
        #: participant added since).
        self.rates: Dict[Key, float] = {}

    def add(self, key: Key, path: Sequence[Link], weight: float = 1.0) -> None:
        """Register a participant crossing ``path`` with a positive ``weight``.

        Keys must be mutually sortable (the engine uses ``(flow_id,
        subflow_index)`` tuples).  Duplicate links in ``path`` are
        collapsed — a participant cannot congest a link with itself twice.
        Shares on a contended link are allocated proportionally to weight.
        """
        if key in self._links_of:
            raise ValueError(f"participant {key!r} is already registered")
        names = tuple(dict.fromkeys(path))
        if not names:
            raise ValueError(f"participant {key!r} has an empty path")
        weight = float(weight)
        if weight <= 0:
            raise ValueError(f"participant {key!r} has non-positive weight {weight!r}")
        links = []
        for name in names:
            link = self._links.get(name)
            if link is None:
                link = self._links[name] = _LinkState(name)
                self.members[name] = link.members
                insort(self._link_order, name)
            insort(link.members, key)
            link.member_weight = None
            links.append(link)
        self._links_of[key] = tuple(links)
        self._weight_of[key] = weight
        self.rates[key] = 0.0

    def remove(self, key: Key) -> None:
        """Unregister a participant (``KeyError`` if it is not registered)."""
        links = self._links_of.pop(key)
        del self._weight_of[key]
        del self.rates[key]
        for link in links:
            del link.members[bisect_left(link.members, key)]
            link.member_weight = None
            if not link.members:
                del self._links[link.name]
                del self.members[link.name]
                self._link_order.remove(link.name)

    def max_min_rates(self, capacities: Mapping[Link, float]) -> Dict[Key, float]:
        """Solve for the registered participants; the result is also :attr:`rates`.

        ``capacities`` maps every link in use to its capacity (bits/s).  A
        non-positive capacity models a failed link: participants crossing it
        are pinned at rate zero (they stall; they do not free their other
        links' shares for ever — they simply hold no bandwidth).

        The rates carry the guarantees the property tests pin: per-link
        allocations sum to at most the link's capacity, and every
        participant is bottlenecked — its path crosses at least one
        saturated link, or only dead links stalled it.
        """
        links = self._links
        links_of = self._links_of
        weight_of = self._weight_of

        # A participant is frozen (or pinned by a dead link) once it has a rate.
        rates: Dict[Key, float] = {}
        frozen = rates.__contains__
        #: Links that lost unfrozen participants since they were last summed.
        stale: Set[_LinkState] = set()
        #: Links with unallocated capacity and unfrozen participants, sorted.
        live: List[_LinkState] = []
        for name in self._link_order:
            link = links[name]
            if name not in capacities:
                raise ValueError(
                    f"participant {link.members[0]!r} crosses unknown link {name!r}"
                )
            if link.member_weight is None:
                link.member_weight = reduce(add, map(weight_of.__getitem__, link.members), 0.0)
            link.unfrozen = link.members
            link.weight = link.member_weight
            capacity = float(capacities[name])
            if capacity > 0.0:
                link.remaining = capacity
                link.tolerance = _SATURATION_EPSILON * max(1.0, capacity)
                live.append(link)
            else:
                # Participants whose path crosses a dead link never receive
                # bandwidth, and weigh nothing on their other links.
                for key in link.members:
                    rates[key] = 0.0
                    stale.update(links_of[key])

        #: Distinct weight → what a participant of that weight has been given so far.
        levels = dict.fromkeys(weight_of.values(), 0.0)
        while True:
            for link in stale:
                link.unfrozen = list(filterfalse(frozen, link.unfrozen))
                link.weight = reduce(add, map(weight_of.__getitem__, link.unfrozen), 0.0)
            # Weights are positive, so a link weighs 0.0 only when every
            # participant crossing it is frozen.
            live = [link for link in live if link.weight > 0.0]
            if not live:
                break

            # The link that saturates first when every unfrozen participant
            # grows its rate by ``weight * increment``.
            bottleneck = live[0]
            increment = -1.0
            for link in live:
                share = link.remaining / link.weight
                if increment < 0.0 or share < increment:
                    increment = share
                    bottleneck = link

            saturated = []
            for link in live:
                left = link.remaining - increment * link.weight
                if left <= link.tolerance:
                    left = 0.0
                    saturated.append(link)
                link.remaining = left
            # The arg-min link is saturated by construction; force it in case
            # round-off left a residual just above the tolerance.
            if bottleneck.remaining > 0.0:
                saturated.append(bottleneck)

            for weight in levels:
                levels[weight] += increment * weight
            stale = set()
            for link in saturated:
                for key in link.unfrozen:
                    if key not in rates:
                        rates[key] = levels[weight_of[key]]
                        stale.update(links_of[key])

        self.rates = rates
        return rates


def max_min_rates(
    capacities: Mapping[Link, float],
    paths: Mapping[Key, Sequence[Link]],
    weights: Optional[Mapping[Key, float]] = None,
) -> Dict[Key, float]:
    """Weighted max-min fair rates for unbounded-demand participants, one shot.

    Args:
        capacities: directed link name → capacity (bits/s); non-positive
            means failed (see :meth:`MaxMinSolver.max_min_rates`).
        paths: participant key → the directed links the participant's
            traffic crosses (see :meth:`MaxMinSolver.add`).
        weights: participant key → positive weight (defaults to 1.0 for
            every participant).

    Returns:
        participant key → allocated rate (bits/s).
    """
    solver: MaxMinSolver[Key] = MaxMinSolver()
    for key in sorted(paths):
        solver.add(key, paths[key], 1.0 if weights is None else weights[key])
    return solver.max_min_rates(capacities)
