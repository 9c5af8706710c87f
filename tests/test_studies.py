"""Goldens for the declarative study table.

``tests/golden/study_rows.json``, ``study_cli.json`` and
``cli_parser_surface.json`` were captured from the hand-rolled study loops
and per-study CLI handlers this table replaced; every row, every exported
byte and every parser option must match them exactly.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.cli import build_parser, main
from repro.experiments import STUDIES, ExperimentConfig, run_points, run_study, study_rows
from repro.experiments.parallel import RunSpec
from repro.metrics.export import dumps_deterministic
from repro.sim.units import megabits_per_second

GOLDEN_DIR = Path(__file__).parent / "golden"
STUDY_ROWS = json.loads((GOLDEN_DIR / "study_rows.json").read_text())
STUDY_CLI = json.loads((GOLDEN_DIR / "study_cli.json").read_text())

#: The plan parameters the goldens were captured with (two subflows, via the config).
PARAMS = {
    "figure1a": dict(subflow_counts=(1, 2)),
    "figure1b": {},
    "figure1c": {},
    "section3": {},
    "loadsweep": dict(protocols=("tcp", "mmptcp"), load_factors=(0.5, 1.0)),
    "coexistence": dict(protocols=("tcp", "mptcp", "mmptcp")),
    "hotspot": dict(protocols=("mptcp", "mmptcp"), hotspot_fraction=0.25, load_fraction=0.5),
    "incast": dict(protocols=("tcp", "mmptcp"), fan_ins=(4,), response_bytes=20_000,
                   topologies=("fattree", "dualhomed")),
}


def _tiny_config(fidelity: str) -> ExperimentConfig:
    return ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.1,
        drain_time_s=0.5,
        short_flow_rate_per_sender=8.0,
        long_flow_size_bytes=200_000,
        max_short_flows=12,
        num_subflows=2,
        initial_cwnd_segments=2,
        seed=11,
        fidelity=fidelity,
    )


def test_goldens_cover_every_study_at_both_fidelities() -> None:
    assert sorted(STUDY_ROWS) == sorted(
        f"{name}/{fidelity}" for name in STUDIES for fidelity in ("packet", "flow")
    )
    assert set(PARAMS) == set(STUDIES)


@pytest.mark.parametrize("key", sorted(STUDY_ROWS))
def test_study_rows_match_golden(key: str) -> None:
    name, fidelity = key.split("/")
    rows = study_rows(run_study(STUDIES[name], _tiny_config(fidelity), **PARAMS[name]))
    golden = STUDY_ROWS[key]
    assert list(rows[0].keys()) == golden["columns"]
    assert dumps_deterministic(rows) == dumps_deterministic(golden["rows"])


def test_run_points_pairs_each_spec_with_its_own_result() -> None:
    # The runner returns results in index order; specs given out of that
    # order must still come back in the caller's order, each with its own.
    tcp = RunSpec(1, _tiny_config("flow").with_updates(protocol="tcp"))
    mmptcp = RunSpec(0, _tiny_config("flow").with_updates(protocol="mmptcp"))
    points = run_points([tcp, mmptcp], lambda spec, result: [])
    assert [point.spec for point in points] == [tcp, mmptcp]
    assert [point.result.config.protocol for point in points] == ["tcp", "mmptcp"]


@pytest.mark.parametrize("name", sorted(STUDY_CLI))
def test_study_subcommand_stdout_and_csv_match_golden(name: str, tmp_path, capsys) -> None:
    golden = STUDY_CLI[name]
    assert main(golden["argv"] + ["--export-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path), "<export-dir>") == golden["stdout"]
    assert (tmp_path / f"{name}.csv").read_text() == golden["csv"]


def _parser_surface(
    parser: argparse.ArgumentParser, path: str, surface: Dict[str, List[list]]
) -> Dict[str, List[list]]:
    entries = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub_parser in action.choices.items():
                _parser_surface(sub_parser, f"{path} {name}".strip(), surface)
        elif not isinstance(action, argparse._HelpAction):
            entries.append([
                list(action.option_strings),
                action.dest,
                action.default,
                None if action.choices is None else list(action.choices),
                action.nargs,
                action.required,
            ])
    surface[path] = entries
    return surface


def test_parser_surface_matches_golden() -> None:
    """No knob added or lost: every sub-command's options, defaults and choices."""
    golden = json.loads((GOLDEN_DIR / "cli_parser_surface.json").read_text())
    surface = _parser_surface(build_parser(), "", {})
    assert json.loads(dumps_deterministic(surface)) == golden


_SURFACE = _parser_surface(build_parser(), "", {})
_LEAVES = [path for path in _SURFACE
           if path and not any(other.startswith(f"{path} ") for other in _SURFACE)]


@pytest.mark.parametrize("path", _LEAVES)
def test_every_subcommand_help_renders(path: str, capsys) -> None:
    """argparse formats a help string only when it prints it: render every leaf's."""
    with pytest.raises(SystemExit) as exited:
        main(path.split() + ["--help"])
    assert exited.value.code == 0
    shown = capsys.readouterr().out
    golden = json.loads((GOLDEN_DIR / "cli_parser_surface.json").read_text())[path]
    for options, dest, *_ in golden:
        for name in options or [dest]:
            assert name in shown


def test_study_subcommands_are_built_from_the_table() -> None:
    parser = build_parser()
    handlers = {parser.parse_args([name]).handler for name in STUDIES}
    assert len(handlers) == 1
