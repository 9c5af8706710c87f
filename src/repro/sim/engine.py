"""Discrete-event simulation engine.

One scheduling structure: a ``heapq`` of plain ``(time, sequence, target)``
tuples, popped in global chronological order with ties broken by the
insertion sequence, so behaviour is deterministic.  ``target`` is either

* an :class:`Event` — a one-shot callback from
  ``simulator.schedule(delay, callback, *args)`` /
  ``simulator.schedule_at(time, callback, *args)``; or
* a :class:`Timer` — a *reusable* handle from ``simulator.timer(callback)``,
  cycled through ``timer.arm(delay, *args)`` / ``timer.cancel()`` — the
  right tool for link-transmission, retransmission and delayed-ACK timers
  that are armed once per packet.

Sequence numbers are unique, so every heap sift compares a float and an int
in C and never reaches the target.  An entry is *live* while it carries its
target's current sequence (``target.sequence == entry[1]``); firing or
cancelling a target sets its sequence negative, which retires the entry
lazily: it stays in the heap until popped or compacted.

Timers re-arm *deferred*.  Every ``arm`` draws one sequence number and
records the logical ``(time, sequence)`` on the handle, but pushes a heap
entry only when the handle has no filed entry or the new deadline is
earlier than the filed one (which is then orphaned).  A filed entry whose
handle has since moved later is a *placeholder*: it sorts before the
logical ``(time, sequence)`` (earlier-or-equal time, older sequence), so it
surfaces first and the loop *re-files* it at the logical position — or
drops it if the timer was cancelled — without counting an event.  A timer
re-armed on every ACK therefore costs one heap entry per timeout period,
not one per ACK.

The run loop is the hottest code in the whole library (every simulated
packet costs several events): pop, liveness check, horizon check, dispatch.
Heap hygiene keeps lazy cancellation honest: once dead entries (cancelled
events, orphaned timer entries) exceed half the heap and a small floor, the
heap is compacted in one O(n) pass.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from types import SimpleNamespace
from typing import Any, Callable, List, Optional, Tuple, Union

#: Heaps with fewer dead entries than this are never compacted — not worth
#: the pass.
_COMPACTION_FLOOR = 64

_INF = float("inf")

#: ``Timer.sequence`` of a cancelled timer whose filed entry is still in
#: the heap (``-1``: disarmed, nothing filed).
_CANCELLED_FILED = -2


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Event:
    """Handle of a single scheduled callback.

    Attributes:
        time: absolute simulated time the event is scheduled for.
        sequence: the tie-break sequence of the event's heap entry; ``-1``
            once the event has fired or been cancelled.
    """

    __slots__ = ("time", "sequence", "callback", "args")

    def __init__(
        self, time: float, sequence: int, callback: Callable[..., None], args: tuple = ()
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"callback={self.callback!r}, args={self.args!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped.

        Prefer :meth:`Simulator.cancel`, which additionally feeds the heap's
        compaction accounting; cancelling through the event alone is still
        correct but invisible to the hygiene heuristics.
        """
        self.sequence = -1


class Timer:
    """A reusable arm/re-arm/cancel handle for a single pending callback.

    A timer is created once (typically per connection or per interface) and
    then cycled through ``arm``/``cancel`` for its whole life.  At most one
    incarnation is pending at a time: arming an armed timer atomically
    replaces the previous deadline.

    Determinism contract: a timer armed at time ``t`` with sequence ``s``
    fires in exactly the global ``(t, s)`` order a scheduled event would,
    and each ``arm`` consumes one sequence number from the simulator's shared
    counter — the same consumption pattern as ``schedule`` + ``cancel`` — so
    converting a call site from raw events to timers does not perturb event
    ordering anywhere else in the run.

    Attributes:
        callback: invoked as ``callback(*args)`` when the timer fires.
        args: positional arguments captured by the most recent ``arm``.
        time: absolute fire time of the current incarnation (valid only
            while ``armed``).
        sequence: tie-break sequence of the current incarnation, drawn from
            the simulator's shared counter; negative while disarmed.
    """

    __slots__ = ("simulator", "callback", "args", "time", "sequence", "_filed_time", "_filed_seq")

    def __init__(self, simulator: "Simulator", callback: Callable[..., None]) -> None:
        self.simulator = simulator
        self.callback = callback
        self.args: tuple = ()
        self.time = 0.0
        self.sequence = -1
        #: ``(time, sequence)`` of this handle's one non-orphaned heap entry;
        #: meaningful unless ``sequence == -1`` (nothing filed).
        self._filed_time = 0.0
        self._filed_seq = -1

    @property
    def armed(self) -> bool:
        """True while an incarnation of this timer is pending."""
        return self.sequence >= 0

    @property
    def when(self) -> Optional[float]:
        """Absolute fire time of the pending incarnation, or ``None``."""
        return self.time if self.sequence >= 0 else None

    def arm(self, delay: float, *args: Any) -> "Timer":
        """(Re-)arm the timer ``delay`` seconds from now.

        Replaces any pending incarnation; ``args`` become the callback
        arguments for this firing.  Returns ``self`` for chaining.  One
        Python call, because every link transmission and every ACK makes it.
        """
        if delay < 0:
            raise SimulationError(f"cannot arm timer with negative delay {delay!r}")
        simulator = self.simulator
        when = simulator._now + delay
        sequence = simulator._sequence
        simulator._sequence = sequence + 1
        filed = self.sequence != -1
        self.time = when
        self.sequence = sequence
        self.args = args
        if not filed or when < self._filed_time:
            self._filed_time = when
            self._filed_seq = sequence
            heappush(simulator._queue, (when, sequence, self))
            if filed:
                simulator._note_dead()  # the later entry it supersedes is an orphan
        # else deferred: the filed entry surfaces first and is re-filed
        return self

    def cancel(self) -> None:
        """Disarm the timer (idempotent; a disarmed timer can be re-armed)."""
        if self.sequence >= 0:
            self.sequence = _CANCELLED_FILED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"t={self.time!r} seq={self.sequence}" if self.armed else "disarmed"
        return f"Timer({self.callback!r}, {state})"


#: One heap entry.  Live while ``entry[2].sequence == entry[1]``.
Entry = Tuple[float, int, Union[Event, Timer]]


class Simulator:
    """A deterministic discrete-event simulator.

    Attributes:
        now: current simulated time in seconds.
        events_processed: callbacks dispatched so far (readable from one).
        heap_compactions: hygiene passes that rebuilt the heap without its
            dead entries.
        heap_refiles: timer placeholders moved to their logical deadline.
    """

    def __init__(self) -> None:
        #: The heap.  Only ever mutated in place, so the run loop's local
        #: binding survives a compaction triggered from a callback.
        self._queue: List[Entry] = []
        self._now: float = 0.0
        self._sequence: int = 0
        self._running: bool = False
        self._heap_dead: int = 0
        self.events_processed: int = 0
        self.heap_compactions: int = 0
        self.heap_refiles: int = 0
        #: Optional dispatch profiler (see :mod:`repro.obs.profiler`).  The
        #: run loop re-binds it as a local per run; None (the default) costs
        #: one local None-check per event.
        self.profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Heap diagnostics
    # ------------------------------------------------------------------

    @property
    def heap_dead_entries(self) -> int:
        """Dead entries (cancelled events, orphaned timer entries) awaiting compaction."""
        return self._heap_dead

    @property
    def heap_size(self) -> int:
        """Entries physically in the heap: live, placeholder and dead."""
        return len(self._queue)

    @property
    def timer_wheel(self) -> SimpleNamespace:
        """The retired timer wheel's counters, mapped onto the heap (a snapshot).

        Kept only because ``benchmarks/ledger/traced.py`` reads ``.cascades``
        and ``.sweeps``; it goes when a PR that may edit ``benchmarks/ledger/``
        and ``BENCHMARK.json`` drops the two ``sim.timerwheel.*`` metrics.
        """
        return SimpleNamespace(
            cascades=self.heap_refiles, sweeps=0, stale_entries=self._heap_dead,
            live_count=self.pending_events(), physical_size=lambda: len(self._queue),
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        sequence = self._sequence
        self._sequence = sequence + 1
        when = self._now + delay
        event = Event(when, sequence, callback, args)
        heappush(self._queue, (when, sequence, event))
        return event

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: now={self._now!r}, requested={when!r}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(when, sequence, callback, args)
        heappush(self._queue, (when, sequence, event))
        return event

    def timer(self, callback: Callable[..., None]) -> Timer:
        """Create a reusable (initially disarmed) timer for ``callback``.

        Each ``arm`` draws one sequence number from the same counter as
        ``schedule``, so timers and events interleave deterministically; a
        re-arm to a later deadline allocates no heap entry.
        """
        return Timer(self, callback)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (``None`` is tolerated).

        Cancellation is lazy, but the engine counts it and compacts the heap
        once dead entries outnumber live ones (above a small floor), so
        heavy schedule/cancel churn cannot degrade ``heappop``.
        """
        if event is not None and event.sequence >= 0:
            event.sequence = -1
            self._note_dead()

    def _note_dead(self) -> None:
        dead = self._heap_dead + 1
        self._heap_dead = dead
        if dead > _COMPACTION_FLOOR and dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap, in place, without its dead entries (O(n) pass)."""
        queue = self._queue
        in_use = self._in_use
        queue[:] = [entry for entry in queue if in_use(entry)]
        heapify(queue)
        self._heap_dead = 0
        self.heap_compactions += 1

    @staticmethod
    def _in_use(entry: Entry) -> bool:
        """True for a live entry or a timer's filed placeholder (not dead)."""
        _, sequence, target = entry
        current = target.sequence
        # A pending event's only entry carries its sequence, so reaching the
        # second clause means ``target`` is a Timer.
        return current == sequence or (current != -1 and target._filed_seq == sequence)

    def _resolve(self, entry: Entry) -> None:
        """Dispose of a popped entry that is not live (no event is counted).

        A timer's filed placeholder is re-filed at the handle's logical
        ``(time, sequence)`` — or dropped if the timer was cancelled; a
        cancelled event or an orphaned timer entry is just discarded.
        """
        target = entry[2]
        if not self._in_use(entry):
            if self._heap_dead:
                self._heap_dead -= 1
        elif target.sequence == _CANCELLED_FILED:
            target.sequence = -1
        else:
            target._filed_time = target.time
            target._filed_seq = target.sequence
            heappush(self._queue, (target.time, target.sequence, target))
            self.heap_refiles += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop.

        Args:
            until: stop once simulated time would exceed this value.  Events
                scheduled exactly at ``until`` are executed.  Without it the
                run ends when the queue is empty.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from a callback")
        self._running = True
        try:
            queue = self._queue
            pop = heappop
            profiler = self.profiler
            horizon = until if until is not None else _INF

            while True:
                if not queue:
                    if until is not None and self._now < until:
                        self._now = until
                    break
                entry = pop(queue)
                when, sequence, target = entry
                if target.sequence != sequence:
                    self._resolve(entry)
                    continue
                if when > horizon:
                    # Put the entry back and advance the clock to the horizon
                    # so repeated run() calls with increasing horizons behave
                    # intuitively.
                    heappush(queue, entry)
                    self._now = until
                    break
                target.sequence = -1
                self._now = when
                if profiler is not None:
                    profiler.note(target.callback)
                target.callback(*target.args)
                self.events_processed += 1
        finally:
            self._running = False

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events and armed timers still waiting."""
        return sum(
            1 for entry in self._queue if entry[2].sequence >= 0 and self._in_use(entry)
        )
