"""Declarative fault-injection scenarios and the scenario × transport matrix.

Public surface:

* :class:`~repro.scenarios.spec.ScenarioSpec` — topology variant + fault
  schedule + workload, independent of transport and scale.
* :func:`~repro.scenarios.registry.register_scenario` /
  :func:`~repro.scenarios.registry.get_scenario` /
  :func:`~repro.scenarios.registry.scenario_names` — the registry (importing
  this package registers the built-in catalogue).
* :class:`~repro.scenarios.runner.ScenarioMatrixRunner` /
  :func:`~repro.scenarios.runner.run_scenario` /
  :func:`~repro.scenarios.runner.matrix_rows` — execution.
* :func:`~repro.scenarios.spec.tiny_config` — the matrix-friendly scale.
"""

from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    DEFAULT_MATRIX_PROTOCOLS,
    DEFAULT_MATRIX_SCENARIOS,
    ScenarioCell,
    ScenarioMatrixRunner,
    matrix_rows,
    run_scenario,
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
    "ScenarioCell",
    "ScenarioMatrixRunner",
    "ScenarioSpec",
    "WORKLOAD_INCAST",
    "WORKLOAD_SHORT_LONG",
    "all_scenarios",
    "build_scenario_workload",
    "get_scenario",
    "matrix_rows",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    "scale_config",
    "scenario_cell_spec",
    "tiny_config",
]
