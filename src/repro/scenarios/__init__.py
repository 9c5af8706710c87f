"""Declarative fault-injection scenarios and the scenario × transport matrix.

Public surface:

* :class:`~repro.scenarios.spec.ScenarioSpec` — topology variant + fault
  schedule + workload, independent of transport and scale.
* :func:`~repro.scenarios.registry.register_scenario` /
  :func:`~repro.scenarios.registry.get_scenario` /
  :func:`~repro.scenarios.registry.scenario_names` — the registry (importing
  :mod:`repro.scenarios.registry` registers the built-in catalogue; importing
  this package alone loads none of its modules).
* :func:`~repro.scenarios.runner.matrix_plan` /
  :func:`~repro.scenarios.runner.cell_rows` — a matrix as a study plan and
  its row projection; :func:`repro.experiments.study.run_points` executes it.
* :func:`~repro.scenarios.spec.tiny_config` — the matrix-friendly scale.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "registry": ("UnknownScenarioError", "all_scenarios", "get_scenario", "register_scenario",
        "scenario_names"),
    "runner": ("DEFAULT_MATRIX_PROTOCOLS", "DEFAULT_MATRIX_SCENARIOS", "cell_rows", "matrix_plan",
        "scenario_cell_spec"),
    "spec": ("SCENARIO_SCALES", "ScenarioSpec", "build_scenario_workload", "scale_config",
        "tiny_config"),
})
