"""Tests for the declarative scenario subsystem and the scenario matrix."""

from __future__ import annotations

import pytest

from repro.analysis.report import scenario_matrix_markdown
from repro.experiments import run_points, study_rows
from repro.experiments.parallel import SweepRunner
from repro.net.faults import link_failure
from repro.scenarios import (
    DEFAULT_MATRIX_PROTOCOLS,
    DEFAULT_MATRIX_SCENARIOS,
    ScenarioSpec,
    all_scenarios,
    build_scenario_workload,
    cell_rows,
    get_scenario,
    matrix_plan,
    register_scenario,
    scenario_names,
    tiny_config,
)
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_TCP


def _fast_config(**overrides):
    """An even smaller base than tiny_config, for matrix tests."""
    defaults = dict(
        hosts_per_edge=1,
        arrival_window_s=0.05,
        drain_time_s=0.8,
        max_short_flows=4,
        long_flow_size_bytes=300_000,
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


def _run_matrix(config, scenarios, protocols, workers=1):
    return run_points(matrix_plan(config, scenarios, protocols), cell_rows, workers)


def _run_cell(name, config, protocol):
    (point,) = _run_matrix(config, (name,), (protocol,))
    return point


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------


def test_spec_validation() -> None:
    with pytest.raises(ValueError):
        ScenarioSpec(name="")
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", workload="mapreduce")
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", faults=[link_failure(0.1, "a", "b")])  # list, not tuple
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", config_overrides={"protocol": "tcp"})
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", config_overrides={"fault_schedule": ()})
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", fan_in=0)


def test_spec_apply_to_carries_faults_and_overrides() -> None:
    spec = ScenarioSpec(
        name="x",
        config_overrides={"core_oversubscription": 2.0},
        faults=(link_failure(0.03, "core-0", "agg-0-0"),),
    )
    config = spec.apply_to(tiny_config().with_updates(protocol=PROTOCOL_TCP))
    assert config.core_oversubscription == 2.0
    assert config.fault_schedule == spec.faults
    assert config.protocol == PROTOCOL_TCP


def test_build_scenario_workload_kinds() -> None:
    config = _fast_config().with_updates(protocol=PROTOCOL_TCP)
    assert build_scenario_workload(config, "short_long") is None
    incast = build_scenario_workload(config, "incast", fan_in=4, response_bytes=20_000)
    assert len(incast.flows) == 4
    assert all(flow.size_bytes == 20_000 for flow in incast.flows)
    assert all(flow.protocol == PROTOCOL_TCP for flow in incast.flows)
    with pytest.raises(ValueError):
        build_scenario_workload(config, "mapreduce")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_builtin_catalogue_is_registered() -> None:
    names = scenario_names()
    for expected in ("baseline", "core-link-failure", "oversubscribed-core",
                     "asymmetric-fabric", "incast-burst"):
        assert expected in names
    assert len(all_scenarios()) == len(names)
    # At least one built-in scenario exercises a link failure.
    assert any(spec.faults for spec in all_scenarios())


def test_get_scenario_unknown_name_lists_alternatives() -> None:
    with pytest.raises(KeyError, match="baseline"):
        get_scenario("does-not-exist")


def test_register_scenario_rejects_duplicates_unless_overwritten() -> None:
    from repro.scenarios.registry import _REGISTRY

    spec = ScenarioSpec(name="test-tmp-scenario", description="v1")
    try:
        register_scenario(spec, overwrite=True)
        with pytest.raises(ValueError):
            register_scenario(spec)
        replacement = ScenarioSpec(name="test-tmp-scenario", description="v2")
        register_scenario(replacement, overwrite=True)
        assert get_scenario("test-tmp-scenario").description == "v2"
    finally:
        # The registry is shared process state; leaking the temporary entry
        # would make other tests' registry assertions order-dependent.
        _REGISTRY.pop("test-tmp-scenario", None)


# ---------------------------------------------------------------------------
# Matrix execution
# ---------------------------------------------------------------------------


def test_scenario_run_specs_cross_product_in_matrix_order() -> None:
    specs = matrix_plan(
        _fast_config(), ("baseline", "core-link-failure"), (PROTOCOL_TCP, PROTOCOL_MMPTCP)
    )
    assert [spec.index for spec in specs] == [0, 1, 2, 3]
    assert [spec.tag["scenario"] for spec in specs] == [
        "baseline", "baseline", "core-link-failure", "core-link-failure",
    ]
    assert [spec.tag["protocol"] for spec in specs] == [
        PROTOCOL_TCP, PROTOCOL_MMPTCP, PROTOCOL_TCP, PROTOCOL_MMPTCP,
    ]
    # The failure scenario's configs carry the fault schedule; baseline's don't.
    assert not specs[0].config.fault_schedule
    assert specs[2].config.fault_schedule
    assert specs[2].config.fault_schedule == get_scenario("core-link-failure").faults
    with pytest.raises(ValueError):
        matrix_plan(_fast_config(), (), (PROTOCOL_TCP,))
    with pytest.raises(ValueError):
        matrix_plan(_fast_config(), ("baseline",), ())


def test_matrix_parallel_run_matches_serial_byte_for_byte() -> None:
    scenarios = ("baseline", "core-link-failure")
    protocols = (PROTOCOL_TCP, PROTOCOL_MMPTCP)
    serial = _run_matrix(_fast_config(), scenarios, protocols, workers=1)
    parallel = _run_matrix(_fast_config(), scenarios, protocols, workers=2)
    assert study_rows(serial) == study_rows(parallel)


def test_mmptcp_completes_all_flows_under_core_link_failure() -> None:
    cell = _run_cell("core-link-failure", _fast_config(), PROTOCOL_MMPTCP)
    metrics = cell.result.metrics
    assert metrics.short_flow_completion_rate() == 1.0
    assert all(record.completed for record in metrics.flows)


def test_cell_rows_shape_and_report_table() -> None:
    points = _run_matrix(
        _fast_config(), ("baseline", "core-link-failure"), (PROTOCOL_TCP, PROTOCOL_MMPTCP)
    )
    rows = study_rows(points)
    assert len(rows) == 4
    # Regression: key order is insertion-stable and part of the public
    # contract — CSV headers and store-backed reports derive from it.
    from repro.metrics.collector import CELL_METRIC_FIELDS

    expected_order = ("scenario", "protocol", "faults") + CELL_METRIC_FIELDS
    for row in rows:
        assert tuple(row.keys()) == expected_order
    markdown = scenario_matrix_markdown(rows, baseline_protocol=PROTOCOL_TCP)
    assert "core-link-failure" in markdown
    assert "ΔFCT vs tcp" in markdown
    assert "n/a" in markdown  # the baseline protocol's own delta cells
    # Non-baseline rows carry computed deltas (a signed percentage).
    assert "%" in markdown


def test_matrix_runner_rejects_negative_workers(monkeypatch) -> None:
    import repro.experiments.parallel as parallel

    def _explode(spec):  # pragma: no cover - defensive
        raise AssertionError("a bad worker count must not reach execute_spec")

    monkeypatch.setattr(parallel, "execute_spec", _explode)
    with pytest.raises(ValueError, match="workers"):
        _run_matrix(_fast_config(), ("baseline",), (PROTOCOL_TCP,), workers=-2)
    with pytest.raises(ValueError, match="workers"):
        SweepRunner(workers=-1)


def test_default_matrix_shape_is_at_least_six_cells() -> None:
    assert len(DEFAULT_MATRIX_SCENARIOS) * len(DEFAULT_MATRIX_PROTOCOLS) >= 6
    assert "core-link-failure" in DEFAULT_MATRIX_SCENARIOS
    assert PROTOCOL_MMPTCP in DEFAULT_MATRIX_PROTOCOLS


def test_incast_scenario_runs_end_to_end() -> None:
    # The 8-to-1 burst needs more than 8 hosts: use two hosts per edge.
    base = _fast_config(hosts_per_edge=2)
    cell = _run_cell("incast-link-failure", base, PROTOCOL_MMPTCP)
    metrics = cell.result.metrics
    # 8 synchronised responses, all of which must eventually complete.
    assert len(metrics.short_flows) == 8
    assert metrics.short_flow_completion_rate() == 1.0


def test_oversubscribed_scenario_builds_slower_core_links() -> None:
    cell = _run_cell("oversubscribed-core", _fast_config(), PROTOCOL_TCP)
    assert cell.result.config.core_oversubscription == 2.0
