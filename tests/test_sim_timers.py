"""Tests for reusable timers and event-heap hygiene: the scheduler contract.

The centrepiece is a hypothesis property: for any interleaving of
arm/re-arm/cancel operations, ``run(until=)`` splits and
``pending_events()``/``Timer.when`` probes, :class:`Timer` handles
(deferred re-arm, placeholders, re-files) behave exactly like the same
program expressed with naive ``schedule``/``cancel`` heap events.  That
equivalence is what lets call sites hold timers without perturbing golden
traces.  The bounded-growth tests pin the other half of the contract: a
later re-arm files nothing, and earlier-deadline churn is compacted away.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, SimulationError, Simulator

# ---------------------------------------------------------------------------
# Timer handle basics
# ---------------------------------------------------------------------------


class TestTimerHandle:
    def test_unarmed_timer_state(self, simulator: Simulator) -> None:
        timer = simulator.timer(lambda: None)
        assert not timer.armed
        assert timer.when is None

    def test_arm_fires_once_with_args(self, simulator: Simulator) -> None:
        received = []
        timer = simulator.timer(lambda a, b: received.append((a, b)))
        timer.arm(0.5, 7, "x")
        assert timer.armed
        assert timer.when == 0.5
        simulator.run()
        assert received == [(7, "x")]
        assert not timer.armed
        assert simulator.events_processed == 1

    def test_rearm_replaces_previous_deadline(self, simulator: Simulator) -> None:
        fired = []
        timer = simulator.timer(lambda: fired.append(simulator.now))
        timer.arm(1.0)
        timer.arm(2.0)  # replaces, never fires at 1.0
        simulator.run()
        assert fired == [2.0]

    def test_cancel_prevents_firing_and_is_idempotent(self, simulator: Simulator) -> None:
        fired = []
        timer = simulator.timer(lambda: fired.append("fired"))
        timer.arm(1.0)
        timer.cancel()
        timer.cancel()
        assert not timer.armed
        simulator.run(until=5.0)
        assert fired == []

    def test_cancelled_timer_can_be_rearmed(self, simulator: Simulator) -> None:
        fired = []
        timer = simulator.timer(lambda: fired.append(simulator.now))
        timer.arm(1.0)
        timer.cancel()
        timer.arm(3.0)
        simulator.run()
        assert fired == [3.0]

    def test_negative_delay_rejected(self, simulator: Simulator) -> None:
        timer = simulator.timer(lambda: None)
        with pytest.raises(SimulationError):
            timer.arm(-0.1)

    def test_self_rearming_timer_is_periodic(self, simulator: Simulator) -> None:
        fired = []
        timer = simulator.timer(lambda: None)

        def tick() -> None:
            fired.append(simulator.now)
            if len(fired) < 3:
                timer.arm(0.5)

        timer.callback = tick
        timer.arm(0.5)
        simulator.run()
        assert fired == [0.5, 1.0, 1.5]


# ---------------------------------------------------------------------------
# Ordering of timers among events
# ---------------------------------------------------------------------------


class TestTimerEventOrdering:
    def test_fifo_order_among_same_time_events_and_timers(
        self, simulator: Simulator
    ) -> None:
        order: List[str] = []
        simulator.schedule(1.0, lambda: order.append("event-a"))
        simulator.timer(lambda: order.append("timer")).arm(1.0)
        simulator.schedule(1.0, lambda: order.append("event-b"))
        simulator.run()
        assert order == ["event-a", "timer", "event-b"]

    def test_ordering_across_wheel_levels(self, simulator: Simulator) -> None:
        # Near, far and very far deadlines (the retired wheel filed them in
        # three different structures) interleave correctly with events.
        order: List[float] = []

        def log() -> None:
            order.append(simulator.now)

        simulator.timer(log).arm(100.0)
        simulator.timer(log).arm(30.0)
        simulator.timer(log).arm(0.1)
        simulator.schedule(50.0, log)  # plain event
        simulator.timer(log).arm(0.1005)
        simulator.run()
        assert order == [0.1, 0.1005, 30.0, 50.0, 100.0]

    def test_timer_armed_by_callback_into_current_instant(
        self, simulator: Simulator
    ) -> None:
        order: List[str] = []
        timer = simulator.timer(lambda: order.append("timer"))
        simulator.schedule(1.0, lambda: timer.arm(0.0))
        simulator.schedule(1.0, lambda: order.append("later-event"))
        simulator.run()
        # The zero-delay arm gets a later sequence than the already-queued
        # event at the same instant, so it fires after it — exactly the
        # FIFO rule raw events follow.
        assert order == ["later-event", "timer"]

    def test_until_horizon_applies_to_timers(self, simulator: Simulator) -> None:
        fired = []
        simulator.timer(lambda: fired.append("late")).arm(5.0)
        simulator.run(until=2.0)
        assert fired == []
        assert simulator.now == 2.0
        simulator.run(until=10.0)
        assert fired == ["late"]

    def test_pending_events_include_timers(self, simulator: Simulator) -> None:
        simulator.schedule(3.0, lambda: None)
        timer = simulator.timer(lambda: None)
        timer.arm(1.0)
        assert simulator.pending_events() == 2
        timer.cancel()
        assert simulator.pending_events() == 1


# ---------------------------------------------------------------------------
# Property: timers == naive schedule + cancel, for any program
# ---------------------------------------------------------------------------

#: Delay grid from sub-microsecond to beyond a minute; repeated values force
#: exact-time ties so FIFO ordering is exercised.
_DELAYS = st.sampled_from(
    [0.0, 1e-6, 1e-4, 5e-4, 1e-3, 0.01, 0.2, 0.2, 0.255, 0.3, 1.0, 30.0, 70.0]
) | st.floats(min_value=0.0, max_value=80.0, allow_nan=False, width=32)

_TIMERS = st.integers(0, 5)

#: One program step, applied from a driver event: ``(kind, timer, a, b)``.
_STEPS = st.one_of(
    st.tuples(st.just("arm"), _TIMERS, _DELAYS, st.none()),
    st.tuples(st.just("arm_twice"), _TIMERS, _DELAYS, _DELAYS),  # earlier or later
    st.tuples(st.just("cancel"), _TIMERS, st.none(), st.none()),
    st.tuples(st.just("cancel_then_arm"), _TIMERS, _DELAYS, st.none()),
    st.tuples(st.just("probe"), _TIMERS, st.none(), st.none()),
)

#: (driver delay before the step, step).
_OPS = st.lists(st.tuples(_DELAYS, _STEPS), min_size=1, max_size=40)

Op = Tuple[float, Tuple[str, int, Optional[float], Optional[float]]]


def _run_program(
    ops: List[Op], split: Optional[float], use_timers: bool
) -> Tuple[List[Tuple[Any, ...]], float, int]:
    """Execute a timer program and return (log, final now, events).

    ``split`` (if given) runs the program as ``run(until=split)``, a probe
    from outside the loop, then ``run()``.
    """
    simulator = Simulator()
    log: List[Tuple[Any, ...]] = []
    timer_count = 6

    def fire(index: int) -> None:
        log.append((index, simulator.now))

    def probe() -> None:
        log.append(("probe", simulator.now, deadlines(), simulator.pending_events()))

    if use_timers:
        timers = [simulator.timer(lambda i=i: fire(i)) for i in range(timer_count)]

        def deadlines() -> Tuple[Optional[float], ...]:
            return tuple(timer.when for timer in timers)

        def cancel(index: int) -> None:
            timers[index].cancel()

        def arm(index: int, delay: float) -> None:
            timers[index].arm(delay)

    else:
        events: List[Optional[Event]] = [None] * timer_count

        def deadlines() -> Tuple[Optional[float], ...]:
            return tuple(
                event.time if event is not None and event.sequence >= 0 else None
                for event in events
            )

        def cancel(index: int) -> None:
            simulator.cancel(events[index])
            events[index] = None

        # Naive re-arm: cancel + schedule consumes one sequence number,
        # exactly like Timer.arm.
        def arm(index: int, delay: float) -> None:
            simulator.cancel(events[index])
            events[index] = simulator.schedule(delay, fire, index)

    def apply(kind: str, index: int, a: Optional[float], b: Optional[float]) -> None:
        if kind == "arm":
            arm(index, a)
        elif kind == "arm_twice":
            arm(index, a)
            arm(index, b)
        elif kind == "cancel":
            cancel(index)
        elif kind == "cancel_then_arm":
            cancel(index)
            arm(index, a)
        else:
            probe()

    driver_time = 0.0
    for driver_delay, step in ops:
        driver_time += driver_delay
        simulator.schedule_at(driver_time, apply, *step)
    if split is not None:
        simulator.run(until=split)
        probe()
    simulator.run()
    probe()
    return log, simulator.now, simulator.events_processed


@settings(max_examples=250, deadline=None)
@given(ops=_OPS, split=st.one_of(st.none(), _DELAYS))
def test_wheel_timers_match_naive_heap_for_any_interleaving(
    ops: List[Op], split: Optional[float]
) -> None:
    assert _run_program(ops, split, use_timers=True) == _run_program(
        ops, split, use_timers=False
    )


# ---------------------------------------------------------------------------
# Deferred re-arm: placeholders and re-files
# ---------------------------------------------------------------------------


class TestDeferredRearm:
    def test_placeholder_inside_horizon_leaves_clock_at_until(
        self, simulator: Simulator
    ) -> None:
        fired = []
        timer = simulator.timer(lambda: fired.append(simulator.now))
        timer.arm(1.0)
        timer.arm(5.0)  # deferred: the entry filed at 1.0 is now a placeholder
        assert simulator.heap_size == 1
        sequence_before = simulator._sequence
        simulator.run(until=2.0)
        assert simulator._sequence == sequence_before  # a re-file draws no sequence
        assert fired == []
        assert simulator.now == 2.0
        assert simulator.events_processed == 0
        assert simulator.heap_refiles == 1
        assert timer.when == 5.0
        simulator.run()
        assert fired == [5.0]
        assert simulator.events_processed == 1

    def test_cancelled_timer_placeholder_is_dropped(self, simulator: Simulator) -> None:
        timer = simulator.timer(lambda: None)
        timer.arm(1.0)
        timer.cancel()
        assert simulator.pending_events() == 0
        simulator.run()
        assert simulator.heap_size == 0
        assert simulator.heap_refiles == 0
        assert simulator.events_processed == 0


# ---------------------------------------------------------------------------
# Hygiene: bounded heap growth under cancellation and re-arm churn
# ---------------------------------------------------------------------------


class TestCancellationHygiene:
    def test_heap_compacts_once_cancelled_fraction_exceeds_half(self) -> None:
        simulator = Simulator()
        fired: List[float] = []
        events = [
            simulator.schedule(1.0 + index * 1e-6, lambda: fired.append(simulator.now))
            for index in range(10_000)
        ]
        for event in events[1_000:]:
            simulator.cancel(event)
        # The physical queue must have been rebuilt, not left 90% dead.
        assert simulator.heap_compactions >= 1
        assert simulator.heap_size < 2_000
        assert simulator.pending_events() == 1_000
        simulator.run()
        assert len(fired) == 1_000
        assert fired[0] == 1.0
        assert fired == sorted(fired)

    def test_later_rearms_file_nothing(self) -> None:
        # The RTO pattern: every ACK pushes the deadline out.  10,048 re-arms
        # over 64 timers leave one filed entry per timer and nothing to sweep.
        simulator = Simulator()
        fired: List[Tuple[int, float]] = []
        timers = [
            simulator.timer(lambda i=i: fired.append((i, simulator.now))) for i in range(64)
        ]
        for round_no in range(157):
            for timer in timers:
                if round_no % 2:
                    timer.cancel()  # all data acked; the next send re-arms
                timer.arm(0.2 + round_no * 1e-5)
        assert simulator.heap_size <= 64
        assert simulator.heap_compactions == 0
        assert simulator.heap_dead_entries == 0
        assert simulator.pending_events() == 64
        simulator.run()
        assert fired == [(i, 0.2 + 156 * 1e-5) for i in range(64)]
        assert simulator.heap_refiles == 64
        assert simulator.events_processed == 64

    def test_earlier_rearm_churn_is_compacted(self) -> None:
        # Every re-arm to an earlier deadline orphans the filed entry; the
        # orphans feed the same accounting as cancelled events.
        simulator = Simulator()
        fired: List[int] = []
        timers = [simulator.timer(lambda i=i: fired.append(i)) for i in range(100)]
        for round_no in range(100):
            for timer in timers:
                timer.arm(1.0 - round_no * 1e-3)
                assert simulator.heap_size <= 2 * simulator.pending_events() + 64
        assert simulator.heap_compactions >= 1
        assert simulator.pending_events() == 100
        simulator.run()
        assert fired == list(range(100))
        assert simulator.now == pytest.approx(1.0 - 99 * 1e-3)
        assert simulator.heap_dead_entries == 0

    def test_cancel_via_event_handle_still_correct(self) -> None:
        # Cancelling through Event.cancel() bypasses the compaction
        # accounting but must stay behaviourally correct (lazy skip).
        simulator = Simulator()
        fired: List[str] = []
        doomed = simulator.schedule(1.0, lambda: fired.append("doomed"))
        simulator.schedule(2.0, lambda: fired.append("kept"))
        doomed.cancel()
        assert simulator.pending_events() == 1
        simulator.run()
        assert fired == ["kept"]
        assert simulator.events_processed == 1
