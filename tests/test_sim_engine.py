"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero(simulator: Simulator) -> None:
    assert simulator.now == 0.0


def test_events_run_in_time_order(simulator: Simulator) -> None:
    order = []
    simulator.schedule(0.3, lambda: order.append("late"))
    simulator.schedule(0.1, lambda: order.append("early"))
    simulator.schedule(0.2, lambda: order.append("middle"))
    simulator.run()
    assert order == ["early", "middle", "late"]


def test_same_time_events_run_in_fifo_order(simulator: Simulator) -> None:
    order = []
    for index in range(5):
        simulator.schedule(1.0, lambda i=index: order.append(i))
    simulator.run()
    assert order == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time(simulator: Simulator) -> None:
    seen = []
    simulator.schedule(2.5, lambda: seen.append(simulator.now))
    simulator.run()
    assert seen == [2.5]
    assert simulator.now == 2.5


def test_run_until_stops_before_later_events(simulator: Simulator) -> None:
    fired = []
    simulator.schedule(1.0, lambda: fired.append(1))
    simulator.schedule(5.0, lambda: fired.append(5))
    simulator.run(until=2.0)
    assert fired == [1]
    assert simulator.now == 2.0
    # Continuing the run executes the remaining event.
    simulator.run(until=10.0)
    assert fired == [1, 5]


def test_run_until_advances_clock_even_with_no_events(simulator: Simulator) -> None:
    simulator.run(until=3.0)
    assert simulator.now == 3.0


def test_negative_delay_rejected(simulator: Simulator) -> None:
    with pytest.raises(SimulationError):
        simulator.schedule(-0.1, lambda: None)


def test_scheduling_in_the_past_rejected(simulator: Simulator) -> None:
    simulator.schedule(1.0, lambda: None)
    simulator.run()
    with pytest.raises(SimulationError):
        simulator.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire(simulator: Simulator) -> None:
    fired = []
    event = simulator.schedule(1.0, lambda: fired.append("cancelled"))
    simulator.schedule(1.0, lambda: fired.append("kept"))
    event.cancel()
    simulator.run()
    assert fired == ["kept"]


def test_cancel_none_is_tolerated(simulator: Simulator) -> None:
    simulator.cancel(None)  # must not raise


def test_events_scheduled_during_run_are_executed(simulator: Simulator) -> None:
    order = []

    def first() -> None:
        order.append("first")
        simulator.schedule(0.5, lambda: order.append("nested"))

    simulator.schedule(0.1, first)
    simulator.run()
    assert order == ["first", "nested"]
    assert simulator.now == pytest.approx(0.6)


def test_running_flag_cleared_when_a_callback_raises(simulator: Simulator) -> None:
    fired = []

    def boom() -> None:
        raise RuntimeError("callback exploded")

    simulator.schedule(0.1, boom)
    simulator.schedule(0.2, lambda: fired.append(simulator.now))
    with pytest.raises(RuntimeError):
        simulator.run()
    # The engine is still usable afterwards: the next run is not re-entrant.
    simulator.run()
    assert fired == [0.2]


def test_run_is_not_reentrant(simulator: Simulator) -> None:
    failures = []

    def reenter() -> None:
        try:
            simulator.run()
        except SimulationError as error:
            failures.append(error)

    simulator.schedule(0.1, reenter)
    simulator.run()
    assert len(failures) == 1


def test_events_processed_counter(simulator: Simulator) -> None:
    for index in range(4):
        simulator.schedule(0.1, lambda: None)
    simulator.run()
    assert simulator.events_processed == 4


def test_pending_events_excludes_cancelled(simulator: Simulator) -> None:
    keep = simulator.schedule(1.0, lambda: None)
    drop = simulator.schedule(2.0, lambda: None)
    drop.cancel()
    assert simulator.pending_events() == 1
    assert keep.time == 1.0


def test_callback_arguments_passed_through(simulator: Simulator) -> None:
    received = []
    simulator.schedule(0.1, lambda a, b: received.append((a, b)), 7, "x")
    simulator.run()
    assert received == [(7, "x")]
