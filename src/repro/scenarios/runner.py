"""Scenario cells: the plan, the cell spec and the one row projection.

:func:`matrix_plan` crosses registered scenarios with transport protocols
into ordinary :class:`RunSpec`s — each cell's config carries the scenario's
fault schedule and topology overrides, its workload travels as a picklable
recipe — and :func:`repro.experiments.study.run_points` executes them like
any other study plan, so a matrix parallelises byte-identically for any
``workers`` value.  :func:`cell_rows` is the row projection of every
scenario cell, matrix or campaign.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.metrics.collector import ExperimentResult
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, build_scenario_workload, reject_repeats
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP

#: The default 2 × 3 matrix: healthy fabric and a hard link failure, across
#: the paper's three protagonist transports.
DEFAULT_MATRIX_SCENARIOS = ("baseline", "core-link-failure")
DEFAULT_MATRIX_PROTOCOLS = (PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)


def scenario_cell_spec(
    index: int,
    scenario: ScenarioSpec,
    config: ExperimentConfig,
    tag: Dict[str, Any],
    probes: Tuple[str, ...] = (),
    profile: bool = False,
) -> RunSpec:
    """The :class:`RunSpec` of one scenario cell.

    ``config`` is the cell's final config — ``scenario.apply_to(...)`` of
    the base with the cell's protocol, plus any sweep values and replication
    seed; the scenario contributes the workload recipe.  Scenario matrices
    and campaigns both build their cells here, so the two can never disagree
    on what a cell runs (or on its store key).
    """
    return RunSpec(
        index=index,
        config=config,
        workload_factory=build_scenario_workload,
        workload_args=(
            scenario.workload, scenario.fan_in, scenario.response_bytes, scenario.receiver
        ),
        tag=tag,
        probes=probes,
        profile=profile,
    )


def matrix_plan(
    config: ExperimentConfig,
    scenarios: Sequence[str],
    protocols: Sequence[str],
    probes: Tuple[str, ...] = (),
    profile: bool = False,
) -> List[RunSpec]:
    """One :class:`RunSpec` per (scenario, protocol) cell, in matrix order."""
    if not scenarios or not protocols:
        raise ValueError("need at least one scenario and one protocol")
    reject_repeats("scenario", scenarios)
    reject_repeats("protocol", protocols)
    return [
        scenario_cell_spec(
            index,
            scenario,
            scenario.apply_to(config.with_updates(protocol=protocol)),
            {"scenario": scenario.name, "protocol": protocol},
            probes=probes,
            profile=profile,
        )
        for index, (scenario, protocol) in enumerate(
            itertools.product([get_scenario(name) for name in scenarios], protocols)
        )
    ]


def params_label(params: Dict[str, Any]) -> str:
    """Deterministic compact rendering of a sweep point (declared order).

    The one formatting used everywhere a sweep point is shown — report
    rows, status tables, incomplete-campaign errors — so the renderings
    can never drift apart.
    """
    return " ".join(f"{name}={value}" for name, value in params.items())


def cell_coordinates(spec: RunSpec) -> Dict[str, object]:
    """The cell's tag as row columns: a campaign cell's sweep point is labelled."""
    coordinates = dict(spec.tag)
    if "params" in coordinates:
        coordinates["params"] = params_label(coordinates["params"])
    return coordinates


def cell_rows(spec: RunSpec, result: ExperimentResult) -> List[Dict[str, object]]:
    """The flat row of one scenario cell (table rendering / CSV export / reports).

    Key order — the tag's coordinates (``scenario``, ``protocol``, and for a
    campaign cell ``params``, ``replication``), ``faults``, then
    :data:`repro.metrics.collector.CELL_METRIC_FIELDS` — is insertion-stable
    and part of the public contract (CSV headers and report tables derive
    from it): a matrix row is a campaign row minus the two columns its tag
    does not have.
    """
    return [
        {
            **cell_coordinates(spec),
            "faults": len(result.config.fault_schedule),
            **result.metrics.cell_row(),
        }
    ]
