"""Scenario matrix execution.

The :class:`ScenarioMatrixRunner` crosses registered scenarios with
transport protocols and fans every cell out through the shared
:class:`repro.experiments.parallel.SweepRunner`.  Each cell is one
:class:`RunSpec` whose config carries the scenario's fault schedule and
topology overrides, and whose workload travels as a picklable recipe —
so a matrix parallelises byte-identically for any ``workers`` value, the
same determinism contract as every other sweep in the repository.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec, SweepRunner, resolve_workers
from repro.experiments.runner import ExperimentResult
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, build_scenario_workload, tiny_config
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP

#: The default 2 × 3 matrix: healthy fabric and a hard link failure, across
#: the paper's three protagonist transports.
DEFAULT_MATRIX_SCENARIOS = ("baseline", "core-link-failure")
DEFAULT_MATRIX_PROTOCOLS = (PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)


@dataclass
class ScenarioCell:
    """One (scenario, protocol) cell of a matrix, with its full result."""

    scenario: str
    protocol: str
    spec: ScenarioSpec
    result: ExperimentResult


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


class ScenarioMatrixRunner:
    """Runs a scenario × protocol matrix, serially or on a process pool."""

    def __init__(
        self,
        base_config: Optional[ExperimentConfig] = None,
        workers: Optional[int] = 1,
        probes: Tuple[str, ...] = (),
        profile: bool = False,
    ) -> None:
        self.base_config = base_config if base_config is not None else tiny_config()
        # Fail fast on nonsense worker counts instead of at run() time.
        self.workers = resolve_workers(workers)
        self.probes = probes
        self.profile = profile

    def run(
        self,
        scenarios: Sequence[str] = DEFAULT_MATRIX_SCENARIOS,
        protocols: Sequence[str] = DEFAULT_MATRIX_PROTOCOLS,
    ) -> List[ScenarioCell]:
        """Execute the full cross-product; cells come back in matrix order."""
        # Resolve each scenario exactly once so the cells returned describe
        # the same specs the configs were built from, even if the registry
        # entry is overwritten while the matrix runs.
        scenario_specs = [get_scenario(name) for name in scenarios]
        spec_by_name = {spec.name: spec for spec in scenario_specs}
        specs = self.specs(scenario_specs, protocols)
        results = SweepRunner(self.workers).run(specs)
        return [
            ScenarioCell(
                scenario=spec.tag["scenario"],
                protocol=spec.tag["protocol"],
                spec=spec_by_name[spec.tag["scenario"]],
                result=result,
            )
            for spec, result in zip(specs, results)
        ]

    def specs(
        self, scenario_specs: Sequence[ScenarioSpec], protocols: Sequence[str]
    ) -> List[RunSpec]:
        """One :class:`RunSpec` per (scenario, protocol) cell, in matrix order."""
        if not scenario_specs or not protocols:
            raise ValueError("need at least one scenario and one protocol")
        return [
            scenario_cell_spec(
                index,
                scenario,
                scenario.apply_to(self.base_config.with_updates(protocol=protocol)),
                {"scenario": scenario.name, "protocol": protocol},
                probes=self.probes,
                profile=self.profile,
            )
            for index, (scenario, protocol) in enumerate(
                itertools.product(scenario_specs, protocols)
            )
        ]


def run_scenario(
    name: str,
    base_config: Optional[ExperimentConfig] = None,
    protocol: str = PROTOCOL_MMPTCP,
) -> ScenarioCell:
    """Run a single scenario for one protocol (the ``scenarios run`` command)."""
    cells = ScenarioMatrixRunner(base_config, workers=1).run(
        scenarios=(name,), protocols=(protocol,)
    )
    return cells[0]


def matrix_rows(cells: Sequence[ScenarioCell]) -> List[Dict[str, object]]:
    """Flat per-cell rows for table rendering / CSV export / reports.

    Key order — ``scenario``, ``protocol``, ``faults``, then
    :data:`repro.metrics.collector.CELL_METRIC_FIELDS` — is insertion-stable
    and part of the public contract (CSV headers come from it); rows appear
    in matrix (cell) order.
    """
    rows: List[Dict[str, object]] = []
    for cell in cells:
        row: Dict[str, object] = {
            "scenario": cell.scenario,
            "protocol": cell.protocol,
            "faults": len(cell.spec.faults),
        }
        row.update(cell.result.metrics.cell_row())
        rows.append(row)
    return rows
