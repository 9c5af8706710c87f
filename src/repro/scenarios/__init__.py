"""Declarative fault-injection scenarios and the scenario × transport matrix.

Public surface:

* :class:`~repro.scenarios.spec.ScenarioSpec` — topology variant + fault
  schedule + workload, independent of transport and scale.
* :func:`~repro.scenarios.registry.register_scenario` /
  :func:`~repro.scenarios.registry.get_scenario` /
  :func:`~repro.scenarios.registry.scenario_names` — the registry (importing
  this package registers the built-in catalogue).
* :func:`~repro.scenarios.runner.matrix_plan` /
  :func:`~repro.scenarios.runner.cell_rows` — a matrix as a study plan and
  its row projection; :func:`repro.experiments.study.run_points` executes it.
* :func:`~repro.scenarios.spec.tiny_config` — the matrix-friendly scale.
"""

from repro.scenarios.registry import (
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    DEFAULT_MATRIX_PROTOCOLS,
    DEFAULT_MATRIX_SCENARIOS,
    cell_rows,
    matrix_plan,
    scenario_cell_spec,
)
from repro.scenarios.spec import (
    SCENARIO_SCALES,
    WORKLOAD_INCAST,
    WORKLOAD_SHORT_LONG,
    ScenarioSpec,
    build_scenario_workload,
    scale_config,
    tiny_config,
)

__all__ = [
    "DEFAULT_MATRIX_PROTOCOLS",
    "DEFAULT_MATRIX_SCENARIOS",
    "SCENARIO_SCALES",
    "ScenarioSpec",
    "UnknownScenarioError",
    "WORKLOAD_INCAST",
    "WORKLOAD_SHORT_LONG",
    "all_scenarios",
    "build_scenario_workload",
    "cell_rows",
    "get_scenario",
    "matrix_plan",
    "register_scenario",
    "scenario_names",
    "scale_config",
    "scenario_cell_spec",
    "tiny_config",
]
