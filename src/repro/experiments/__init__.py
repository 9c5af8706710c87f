"""Experiment harness: configuration, runner, the study table and its plans."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "coexistence": ("CoexistenceResult", "ProtocolShare", "build_mixed_protocol_workload",
        "coexistence_rows"),
    "config": ("ExperimentConfig",),
    "loadsweep": ("points_by_protocol",),
    "runner": ("build_topology", "build_workload", "create_flow", "run_experiment"),
    "study": ("STUDIES", "StudyPoint", "load_sweep_rows", "run_coexistence_experiment",
        "run_load_sweep", "run_points", "run_study", "study_rows"),
})
