"""Experiment harness: configuration, runner, the study table and its plans."""

from repro.experiments.coexistence import (
    CoexistenceResult,
    ProtocolShare,
    build_mixed_protocol_workload,
    coexistence_rows,
)
from repro.experiments.config import (
    ExperimentConfig,
    paper_scale,
    reproduction_scale,
)
from repro.experiments.figure1 import FIGURE1A_SUBFLOW_COUNTS
from repro.experiments.loadsweep import points_by_protocol
from repro.experiments.parallel import RunSpec, SweepRunner, seeded_replications
from repro.experiments.runner import (
    ExperimentResult,
    build_topology,
    build_workload,
    create_flow,
    run_experiment,
)
from repro.experiments.section3 import ProtocolStatistics, Section3Comparison
from repro.experiments.study import (
    STUDIES,
    Flag,
    Study,
    StudyPoint,
    load_sweep_rows,
    run_coexistence_experiment,
    run_load_sweep,
    run_points,
    run_study,
    section3_statistics,
    study_rows,
)

__all__ = [
    "ExperimentConfig",
    "paper_scale",
    "reproduction_scale",
    "CoexistenceResult",
    "ProtocolShare",
    "build_mixed_protocol_workload",
    "coexistence_rows",
    "FIGURE1A_SUBFLOW_COUNTS",
    "points_by_protocol",
    "RunSpec",
    "SweepRunner",
    "seeded_replications",
    "ExperimentResult",
    "build_topology",
    "build_workload",
    "create_flow",
    "run_experiment",
    "ProtocolStatistics",
    "Section3Comparison",
    "STUDIES",
    "Flag",
    "Study",
    "StudyPoint",
    "load_sweep_rows",
    "run_coexistence_experiment",
    "run_load_sweep",
    "run_points",
    "run_study",
    "section3_statistics",
    "study_rows",
]
