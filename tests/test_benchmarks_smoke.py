"""Smoke tests for the benchmark suite.

The benchmarks under ``benchmarks/`` are excluded from default collection
(``testpaths = tests``) because a full run takes minutes, which historically
let their entry points rot silently.  These tests keep them honest cheaply:

* every ``bench_*.py`` module must import cleanly (catching signature drift
  in the experiment APIs they call at import time), and
* the experiment entry point each benchmark drives runs end-to-end at the
  ``tiny`` scale (sub-second fabrics; see ``bench_common.tiny_config``).

The tiny scale is far too small for the paper's qualitative claims, so
these tests assert only that the machinery produces well-formed output —
the claims themselves remain the benchmarks' job.
"""

from __future__ import annotations

import importlib
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.experiments import STUDIES, run_study, study_rows

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))


@pytest.fixture(scope="module", autouse=True)
def _bench_dir_on_path():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield
    finally:
        sys.path.remove(str(BENCH_DIR))


def _tiny():
    bench_common = importlib.import_module("bench_common")
    return bench_common.tiny_config()


# ---------------------------------------------------------------------------
# Import rot
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module_name", BENCH_MODULES)
def test_bench_module_imports(module_name: str) -> None:
    """Every benchmark module imports against the current experiment APIs."""
    module = importlib.import_module(module_name)
    if module_name != "bench_common":  # the shared helper module has no tests
        assert any(name.startswith("test_") for name in dir(module)), (
            f"{module_name} defines no benchmark tests"
        )


def test_all_bench_modules_are_covered() -> None:
    """A new bench_*.py must be added to the entry-point smoke map below."""
    assert set(BENCH_MODULES) == set(SMOKE_RUNNERS), (
        "benchmarks and smoke runners out of sync"
    )
    assert {study for study, _ in STUDY_BENCHES.values()} == set(STUDIES), (
        "every declared study needs a benchmark (and vice versa)"
    )


# ---------------------------------------------------------------------------
# Entry points at tiny scale
# ---------------------------------------------------------------------------


#: bench module → (the study it drives, plan parameters that keep a run sub-second).
STUDY_BENCHES = {
    "bench_figure1a": ("figure1a", dict(subflow_counts=(1, 2))),
    "bench_figure1b": ("figure1b", {}),
    "bench_figure1c": ("figure1c", {}),
    "bench_section3_stats": ("section3", {}),
    "bench_roadmap_loadsweep": ("loadsweep", dict(protocols=("mptcp",), load_factors=(0.5,))),
    "bench_roadmap_incast": (
        "incast", dict(protocols=("tcp",), fan_ins=(4,), response_bytes=20_000)
    ),
    "bench_roadmap_coexistence": ("coexistence", dict(protocols=("tcp", "mmptcp"))),
    "bench_roadmap_hotspot": ("hotspot", dict(protocols=("mptcp",))),
}


def _smoke_study(study: str, params: dict) -> None:
    config = _tiny().with_updates(num_subflows=2)
    assert study_rows(run_study(STUDIES[study], config, **params))


def _smoke_ablation_switching():
    from repro.experiments.config import SWITCHING_CONGESTION, SWITCHING_NEVER
    from repro.experiments.runner import run_experiment

    for policy in (SWITCHING_CONGESTION, SWITCHING_NEVER):
        config = _tiny().with_updates(protocol="mmptcp", num_subflows=2,
                                      switching_policy=policy)
        assert run_experiment(config).metrics.flows


def _smoke_ablation_reordering():
    from repro.experiments.config import REORDERING_ADAPTIVE, REORDERING_STATIC
    from repro.experiments.runner import run_experiment

    for policy in (REORDERING_STATIC, REORDERING_ADAPTIVE):
        config = _tiny().with_updates(protocol="mmptcp", num_subflows=2,
                                      reordering_policy=policy)
        assert run_experiment(config).metrics.flows


def _smoke_ablation_rto():
    from repro.experiments.runner import run_experiment

    for protocol in ("mptcp", "mmptcp"):
        config = _tiny().with_updates(protocol=protocol, num_subflows=2)
        result = run_experiment(config)
        assert all(record.rto_events >= 0 for record in result.metrics.flows)


SMOKE_RUNNERS = {
    "bench_common": lambda: _tiny(),
    **{module: partial(_smoke_study, *entry) for module, entry in STUDY_BENCHES.items()},
    "bench_ablation_switching": _smoke_ablation_switching,
    "bench_ablation_reordering": _smoke_ablation_reordering,
    "bench_ablation_rto_incidence": _smoke_ablation_rto,
}


@pytest.mark.parametrize("module_name", sorted(SMOKE_RUNNERS))
def test_bench_entry_point_runs_at_tiny_scale(module_name: str) -> None:
    """The experiment entry point behind each benchmark completes at tiny scale."""
    SMOKE_RUNNERS[module_name]()
