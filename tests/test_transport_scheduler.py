"""Tests for the MPTCP subflow schedulers and their registry."""

from __future__ import annotations

import pytest

from repro.transport.path_manager import (
    PATH_MANAGERS,
    FullMeshPathManager,
    NdiffportsPathManager,
    make_path_manager,
    path_manager_names,
)
from repro.transport.scheduler import (
    SCHEDULERS,
    FcfsScheduler,
    LowestRttScheduler,
    RedundantScheduler,
    RoundRobinScheduler,
    make_scheduler,
    scheduler_names,
)


class _FakeEstimator:
    def __init__(self, srtt: float) -> None:
        self.smoothed_rtt = srtt


class _FakeSubflow:
    """Only the attributes the schedulers look at."""

    def __init__(self, subflow_id: int, srtt: float) -> None:
        self.subflow_id = subflow_id
        self.rto_estimator = _FakeEstimator(srtt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"subflow({self.subflow_id})"


def _subflows(*srtts: float):
    return [_FakeSubflow(index, srtt) for index, srtt in enumerate(srtts)]


def _ids(ordered):
    return [subflow.subflow_id for subflow in ordered]


# ---------------------------------------------------------------------------
# Round robin
# ---------------------------------------------------------------------------


def test_round_robin_empty_list() -> None:
    assert RoundRobinScheduler().order([]) == []


def test_round_robin_is_stable_until_a_chunk_is_consumed() -> None:
    # Merely *asking* for the order must not advance the rotation (that was
    # the drift bug: uneven windows skewed the rotation because refused
    # subflows still burned a turn).
    scheduler = RoundRobinScheduler()
    subflows = _subflows(0.001, 0.002, 0.003)
    assert _ids(scheduler.order(subflows)) == [0, 1, 2]
    assert _ids(scheduler.order(subflows)) == [0, 1, 2]


def test_round_robin_rotates_past_the_consumer() -> None:
    scheduler = RoundRobinScheduler()
    subflows = _subflows(0.001, 0.002, 0.003)
    scheduler.chunk_assigned(subflows[0], subflows)
    assert _ids(scheduler.order(subflows)) == [1, 2, 0]
    scheduler.chunk_assigned(subflows[1], subflows)
    assert _ids(scheduler.order(subflows)) == [2, 0, 1]
    # Wraps back around after the highest id consumed.
    scheduler.chunk_assigned(subflows[2], subflows)
    assert _ids(scheduler.order(subflows)) == [0, 1, 2]


def test_round_robin_rotation_follows_the_actual_consumer() -> None:
    # If the head was window-full and the *second* subflow took the chunk,
    # the rotation continues from the consumer, not from the refused head.
    scheduler = RoundRobinScheduler()
    subflows = _subflows(0.001, 0.002, 0.003)
    scheduler.chunk_assigned(subflows[1], subflows)
    assert _ids(scheduler.order(subflows)) == [2, 0, 1]


def test_round_robin_preserves_membership() -> None:
    scheduler = RoundRobinScheduler()
    subflows = _subflows(0.001, 0.002, 0.003, 0.004)
    for index in range(7):
        ordered = scheduler.order(subflows)
        assert sorted(_ids(ordered)) == [0, 1, 2, 3]
        scheduler.chunk_assigned(ordered[0], subflows)


def test_round_robin_copes_with_changing_population() -> None:
    scheduler = RoundRobinScheduler()
    subflows = _subflows(0.001, 0.002, 0.003)
    scheduler.chunk_assigned(subflows[2], subflows)
    # The population shrinks between calls (e.g. scatter flow deactivated);
    # the scheduler must still return a valid permutation.
    shrunk = _subflows(0.001, 0.002)
    assert sorted(_ids(scheduler.order(shrunk))) == [0, 1]


# ---------------------------------------------------------------------------
# Lowest RTT
# ---------------------------------------------------------------------------


def test_lowest_rtt_orders_by_smoothed_rtt() -> None:
    scheduler = LowestRttScheduler()
    subflows = _subflows(0.004, 0.001, 0.003, 0.002)
    assert _ids(scheduler.order(subflows)) == [1, 3, 2, 0]


def test_lowest_rtt_breaks_ties_on_subflow_id() -> None:
    scheduler = LowestRttScheduler()
    subflows = _subflows(0.002, 0.002, 0.001)
    assert _ids(scheduler.order(subflows)) == [2, 0, 1]
    # Even when the input arrives in reversed order, the tie-break pins the
    # result: nothing depends on incidental list order / sort stability.
    assert _ids(scheduler.order(list(reversed(subflows)))) == [2, 0, 1]


def test_lowest_rtt_pre_sample_ordering_is_subflow_id_order() -> None:
    # Before any RTT sample every estimate is 0.0; the ordering must still
    # be deterministic (ascending subflow_id), not an accident of stability.
    scheduler = LowestRttScheduler()
    subflows = _subflows(0.0, 0.0, 0.0, 0.0)
    assert _ids(scheduler.order(list(reversed(subflows)))) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# FCFS / redundant flags
# ---------------------------------------------------------------------------


def test_fcfs_is_demand_driven_and_orders_by_id() -> None:
    scheduler = FcfsScheduler()
    assert scheduler.demand_driven
    assert not scheduler.duplicates
    assert _ids(scheduler.order(list(reversed(_subflows(0.2, 0.1))))) == [0, 1]


def test_redundant_flags() -> None:
    scheduler = RedundantScheduler()
    assert scheduler.demand_driven
    assert scheduler.duplicates


def test_policy_schedulers_are_withholding() -> None:
    assert not RoundRobinScheduler.demand_driven
    assert not LowestRttScheduler.demand_driven


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------


def test_scheduler_registry_names() -> None:
    assert scheduler_names() == ("fcfs", "lowest_rtt", "redundant", "round_robin")
    for name, cls in SCHEDULERS.items():
        assert cls.name == name


def test_make_scheduler_builds_fresh_instances() -> None:
    first = make_scheduler("round_robin")
    second = make_scheduler("round_robin")
    assert isinstance(first, RoundRobinScheduler)
    assert first is not second  # schedulers are stateful


def test_make_scheduler_aliases() -> None:
    # Each scheduler has exactly one name, the one the config choices list:
    # Linux mptcp's spellings are not aliases.
    for alias in ("default", "roundrobin"):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler(alias)


def test_make_scheduler_unknown_name() -> None:
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("wrr")


def test_path_manager_registry_names() -> None:
    assert path_manager_names() == ("fullmesh", "ndiffports")
    for name, cls in PATH_MANAGERS.items():
        assert cls.name == name


def test_make_path_manager() -> None:
    assert isinstance(make_path_manager("ndiffports"), NdiffportsPathManager)
    assert isinstance(make_path_manager("fullmesh"), FullMeshPathManager)
    with pytest.raises(ValueError, match="unknown path manager"):
        make_path_manager("binder")
