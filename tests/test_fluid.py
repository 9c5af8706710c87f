"""Property tests for the weighted max-min fair-share solver.

The fluid tier's entire bandwidth model reduces to
:func:`repro.sim.fluid.max_min_rates`; these properties pin the two
invariants every allocation must satisfy — feasibility (no link carries more
than its capacity) and work conservation (every participant is bottlenecked
somewhere on its path) — plus the weighted-fairness and dead-link behaviour
the engine's multipath coupling relies on.

The stateful :class:`repro.sim.fluid.MaxMinSolver` behind it is held to a
stricter bar: after any history of registrations, removals and capacity
changes its rates are ``float.hex``-equal to the from-scratch oracle in
``tests/support.py``, which is what keeps every stored flow-fidelity
artifact valid.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.fluid import MaxMinSolver, max_min_rates

from support import reference_max_min_rates

_LINKS = ("l0", "l1", "l2", "l3", "l4")

_capacities = st.fixed_dictionaries(
    {name: st.floats(min_value=1e3, max_value=1e9) for name in _LINKS}
)

_paths = st.dictionaries(
    keys=st.integers(min_value=0, max_value=15),
    values=st.lists(st.sampled_from(_LINKS), min_size=1, max_size=4),
    min_size=1,
    max_size=8,
)

_weights_values = st.floats(min_value=0.1, max_value=8.0)


@given(capacities=_capacities, paths=_paths, data=st.data())
@settings(max_examples=200, deadline=None)
def test_feasible_and_work_conserving(capacities, paths, data) -> None:
    """Per-link load never exceeds capacity; every participant is bottlenecked."""
    weights = {
        key: data.draw(_weights_values, label=f"weight[{key}]") for key in paths
    }
    rates = max_min_rates(capacities, paths, weights)

    assert set(rates) == set(paths)
    assert all(rate >= 0.0 for rate in rates.values())

    load = {name: 0.0 for name in _LINKS}
    for key, path in paths.items():
        for link in dict.fromkeys(path):  # a repeated link counts once
            load[link] += rates[key]
    for name in _LINKS:
        assert load[name] <= capacities[name] * (1.0 + 1e-9)

    # Work conservation: every participant crosses at least one saturated
    # link — otherwise its rate could still be raised, contradicting max-min.
    for key, path in paths.items():
        assert any(
            load[link] >= capacities[link] * (1.0 - 1e-6) for link in path
        ), f"participant {key} is not bottlenecked anywhere on {path}"


@given(
    capacity=st.floats(min_value=1e3, max_value=1e9),
    count=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_equal_weights_share_a_single_link_equally(capacity, count) -> None:
    paths = {index: ["only"] for index in range(count)}
    rates = max_min_rates({"only": capacity}, paths)
    expected = capacity / count
    for rate in rates.values():
        assert rate == pytest.approx(expected, rel=1e-9)


def test_weighted_shares_follow_the_weight_ratio() -> None:
    rates = max_min_rates(
        {"only": 100.0},
        {"light": ["only"], "heavy": ["only"]},
        {"light": 1.0, "heavy": 3.0},
    )
    assert rates["light"] == pytest.approx(25.0)
    assert rates["heavy"] == pytest.approx(75.0)


def test_multipath_coupling_weighs_like_one_flow() -> None:
    """Two 1/2-weight subflows sharing a bottleneck with one whole flow:
    the multipath flow gets half the link in aggregate, as MPTCP's coupled
    congestion control intends."""
    rates = max_min_rates(
        {"shared": 100.0},
        {("mp", 0): ["shared"], ("mp", 1): ["shared"], ("tcp", 0): ["shared"]},
        {("mp", 0): 0.5, ("mp", 1): 0.5, ("tcp", 0): 1.0},
    )
    assert rates[("mp", 0)] + rates[("mp", 1)] == pytest.approx(50.0)
    assert rates[("tcp", 0)] == pytest.approx(50.0)


def test_multipath_fills_a_disjoint_path_beyond_the_coupled_share() -> None:
    """A subflow on an uncontended path is not held back by its sibling's
    bottleneck: weighted max-min still fills the empty path."""
    rates = max_min_rates(
        {"contended": 100.0, "empty": 100.0},
        {("mp", 0): ["contended"], ("mp", 1): ["empty"], ("tcp", 0): ["contended"]},
        {("mp", 0): 0.5, ("mp", 1): 0.5, ("tcp", 0): 1.0},
    )
    assert rates[("mp", 1)] == pytest.approx(100.0)
    assert rates[("mp", 0)] + rates[("tcp", 0)] == pytest.approx(100.0)


def test_two_link_path_is_limited_by_the_tighter_link() -> None:
    rates = max_min_rates(
        {"wide": 100.0, "narrow": 10.0}, {"flow": ["wide", "narrow"]}
    )
    assert rates["flow"] == pytest.approx(10.0)


def test_dead_link_pins_participants_to_zero() -> None:
    rates = max_min_rates(
        {"dead": 0.0, "live": 100.0},
        {"stalled": ["dead", "live"], "ok": ["live"]},
    )
    assert rates["stalled"] == 0.0
    assert rates["ok"] == pytest.approx(100.0)


def test_unknown_link_and_empty_path_are_rejected() -> None:
    with pytest.raises(ValueError):
        max_min_rates({"a": 1.0}, {"flow": ["missing"]})
    with pytest.raises(ValueError):
        max_min_rates({"a": 1.0}, {"flow": []})
    with pytest.raises(ValueError):
        max_min_rates({"a": 1.0}, {"flow": ["a"]}, {"flow": 0.0})


def test_allocation_is_deterministic_and_order_independent() -> None:
    capacities = {"x": 50.0, "y": 75.0, "z": 100.0}
    forward = {1: ["x", "y"], 2: ["y", "z"], 3: ["z"], 4: ["x"]}
    backward = dict(reversed(list(forward.items())))
    assert max_min_rates(capacities, forward) == max_min_rates(capacities, backward)


# ---------------------------------------------------------------------------
# The stateful solver against the from-scratch oracle
# ---------------------------------------------------------------------------

# Mostly weights whose sums round, so that the order of every accumulation
# shows in the last bit; the powers of two are the engine's common case.
_solver_weights = st.sampled_from([1 / 3, 1 / 9, 1 / 7, 0.1, 0.7, 1.0, 0.5, 0.25, 3.0])
_solver_keys = st.tuples(
    st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=3)
)
# max_size > len(_LINKS) forces repeated links inside one path.
_solver_paths = st.lists(st.sampled_from(_LINKS), min_size=1, max_size=7)
_solver_capacities = st.one_of(
    st.sampled_from([0.0, -1.0]), st.floats(min_value=1e3, max_value=1e9)
)
_solver_steps = st.one_of(
    st.tuples(st.just("add"), _solver_keys, _solver_paths, _solver_weights),
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("capacity"), st.sampled_from(_LINKS), _solver_capacities),
)


@given(capacities=_capacities, steps=st.lists(_solver_steps, min_size=1, max_size=40))
@example(
    capacities={name: 1e6 for name in _LINKS},
    steps=[
        ("add", (0, 0), ["l0", "l1"], 1 / 3),
        ("add", (0, 1), ["l0", "l2"], 1 / 3),
        ("add", (1, 0), ["l2", "l1", "l2"], 1.0),
        ("capacity", "l0", 0.0),  # l0 dies: flow 0 is pinned, flow 1 takes l1 and l2
        ("remove", 2),
        ("capacity", "l0", 5e5),  # ... and comes back at half speed
        ("add", (1, 0), ["l0"], 1 / 9),
    ],
)
@settings(max_examples=200, deadline=None)
def test_solver_is_bit_equal_to_the_reference_after_every_step(capacities, steps) -> None:
    solver = MaxMinSolver()
    capacities = dict(capacities)
    paths, weights = {}, {}
    for step in steps:
        if step[0] == "add":
            _, key, path, weight = step
            if key in paths:  # re-registering: a departure and an arrival
                solver.remove(key)
            solver.add(key, path, weight)
            paths[key], weights[key] = path, weight
        elif step[0] == "remove":
            if not paths:
                continue
            key = sorted(paths)[step[1] % len(paths)]
            solver.remove(key)
            del paths[key], weights[key]
        else:
            capacities[step[1]] = step[2]

        expected = reference_max_min_rates(capacities, paths, weights)
        rates = solver.max_min_rates(capacities)
        assert rates == solver.rates
        assert set(rates) == set(expected)
        assert {key: rate.hex() for key, rate in rates.items()} == {
            key: rate.hex() for key, rate in expected.items()
        }
        assert solver.members == {
            link: sorted(key for key in paths if link in paths[key])
            for link in _LINKS
            if any(link in path for path in paths.values())
        }


def test_solver_rejects_duplicate_and_unknown_participants() -> None:
    solver = MaxMinSolver()
    solver.add("flow", ["a"])
    with pytest.raises(ValueError):
        solver.add("flow", ["a"])
    with pytest.raises(KeyError):
        solver.remove("other")
    assert solver.rates == {"flow": 0.0}  # not solved yet
    assert solver.max_min_rates({"a": 8.0}) == {"flow": 8.0}
