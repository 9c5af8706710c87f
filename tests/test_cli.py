"""Tests for the ``repro-mmptcp`` command-line interface."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns import campaign_run_specs
from repro.cli import (
    CONFIG_FLAGS,
    SCALES,
    _campaign_spec_from_args,
    _config_from_args,
    build_parser,
    main,
)
from repro.experiments.config import CHOICES, scaled_config
from repro.metrics.reporting import rows_table
from repro.scenarios.spec import scale_config
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP


# ---------------------------------------------------------------------------
# Parser behaviour
# ---------------------------------------------------------------------------


def test_parser_requires_a_subcommand() -> None:
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_knows_every_documented_subcommand() -> None:
    parser = build_parser()
    for command in ("run", "figure1a", "figure1b", "figure1c", "section3",
                    "loadsweep", "coexistence", "hotspot", "incast"):
        args = parser.parse_args([command])
        assert args.command == command
        assert callable(args.handler)


def test_parser_knows_the_scenarios_subcommands() -> None:
    parser = build_parser()
    listing = parser.parse_args(["scenarios", "list"])
    assert callable(listing.handler)
    run = parser.parse_args(["scenarios", "run", "core-link-failure"])
    assert run.name == "core-link-failure"
    assert run.scale == "tiny"
    matrix = parser.parse_args(["scenarios", "matrix"])
    assert matrix.scenarios == ["baseline", "core-link-failure"]
    assert matrix.transports == ["tcp", "mptcp", "mmptcp"]
    assert matrix.workers == 1
    with pytest.raises(SystemExit):
        parser.parse_args(["scenarios"])  # sub-subcommand is required


def test_run_defaults_to_mmptcp_quick_scale() -> None:
    args = build_parser().parse_args(["run"])
    assert args.protocol == PROTOCOL_MMPTCP
    assert args.scale == "quick"
    assert args.subflows == 8


def test_run_rejects_unknown_protocol() -> None:
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--protocol", "quic"])


def test_scaled_config_shapes() -> None:
    quick = scaled_config("quick", seed=1)
    large = scaled_config("large", seed=1)
    paper = scaled_config("paper", seed=1)
    assert quick.fattree_k == 4
    assert large.fattree_k == 8
    assert paper.fattree_k == 8 and paper.hosts_per_edge == 16
    assert {"quick", "large", "paper"} == set(SCALES)


def test_config_from_args_applies_overrides() -> None:
    args = build_parser().parse_args([
        "run", "--protocol", "mptcp", "--subflows", "4", "--k", "4",
        "--hosts-per-edge", "2", "--link-mbps", "50", "--max-short-flows", "5",
        "--arrival-rate", "3.0", "--switching", "congestion_event",
    ])
    config = _config_from_args(args)
    assert config.protocol == PROTOCOL_MPTCP
    assert config.num_subflows == 4
    assert config.hosts_per_edge == 2
    assert config.link_rate_bps == pytest.approx(50e6)
    assert config.max_short_flows == 5
    assert config.switching_policy == "congestion_event"


def test_incast_subcommand_defaults() -> None:
    args = build_parser().parse_args(["incast"])
    assert args.fan_ins == [8, 16, 32]
    assert args.topologies == ["fattree"]
    assert args.response_kb == 70


def test_rows_table_renders_floats_and_strings() -> None:
    table = rows_table([{"protocol": "mmptcp", "mean": 1.23456}])
    assert "mmptcp" in table
    assert "1.2346" in table


def test_rows_table_empty() -> None:
    assert rows_table([]) == "(no rows)"


def test_workers_flag_rejects_negative_values_before_any_work(capsys) -> None:
    # A negative pool size must be an argparse-level error with a clear
    # message on every sweep-capable sub-command — it must never reach the
    # process pool.
    for argv in (
        ["loadsweep", "--workers", "-2"],
        ["figure1a", "--workers", "-7"],
        ["incast", "--workers=-1"],
        ["scenarios", "matrix", "--workers", "-3"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--workers must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# End-to-end: one tiny run through main()
# ---------------------------------------------------------------------------


def test_main_run_subcommand_executes_and_exports(tmp_path, capsys) -> None:
    exit_code = main([
        "run", "--protocol", "mmptcp", "--subflows", "2",
        "--k", "4", "--hosts-per-edge", "2", "--max-short-flows", "4",
        "--arrival-rate", "2.0", "--seed", "3",
        "--export-dir", str(tmp_path),
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "short_fct_mean_ms" in output

    flows_csv = tmp_path / "run_mmptcp_flows.csv"
    summary_json = tmp_path / "run_mmptcp_summary.json"
    assert flows_csv.exists() and summary_json.exists()
    payload = json.loads(summary_json.read_text())
    assert payload["protocol"] == "mmptcp"
    assert payload["seed"] == 3


def test_main_scenarios_list_shows_the_catalogue(capsys) -> None:
    assert main(["scenarios", "list"]) == 0
    output = capsys.readouterr().out
    for name in ("baseline", "core-link-failure", "incast-burst"):
        assert name in output


def test_main_scenarios_run_unknown_name_fails_cleanly(capsys) -> None:
    assert main(["scenarios", "run", "definitely-not-a-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_main_scenarios_matrix_executes_and_exports(tmp_path, capsys) -> None:
    exit_code = main([
        "scenarios", "matrix",
        "--scenarios", "baseline", "core-link-failure",
        "--transports", "tcp", "mmptcp",
        "--scale", "tiny", "--export-dir", str(tmp_path),
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Scenario matrix" in output
    assert "ΔFCT vs tcp" in output  # the per-scenario delta report
    assert (tmp_path / "scenario_matrix.csv").exists()


# ---------------------------------------------------------------------------
# Config flags left out, and the sweep-axis flag (fidelity)
# ---------------------------------------------------------------------------


def test_run_without_config_flags_keeps_the_preset() -> None:
    args = build_parser().parse_args(["run"])
    # Only the flags with a default (protocol, subflows) override the preset.
    assert _config_from_args(args) == scale_config(args.scale, args.seed).with_updates(
        protocol=PROTOCOL_MMPTCP, num_subflows=8)


def test_scenarios_accept_the_fidelity_flag() -> None:
    matrix = build_parser().parse_args(["scenarios", "matrix", "--fidelity", "flow"])
    assert matrix.fidelity == "flow"
    run = build_parser().parse_args(["scenarios", "run", "baseline", "--fidelity", "flow"])
    assert run.fidelity == "flow"


def test_campaign_fidelity_lists_become_sweep_axes() -> None:
    args = build_parser().parse_args([
        "campaign", "run", "--store", "unused", "--fidelities", "packet", "flow",
    ])
    spec = _campaign_spec_from_args(args)
    assert spec.sweeps == (("fidelity", ("packet", "flow")),)


def test_campaign_without_fidelities_flag_adds_no_axes() -> None:
    args = build_parser().parse_args(["campaign", "run", "--store", "unused"])
    assert _campaign_spec_from_args(args).sweeps == ()


@pytest.mark.parametrize("command", ["run", "status", "report", "gc"])
def test_campaign_spec_with_unknown_config_field_fails_cleanly(command, tmp_path, capsys) -> None:
    # A typo, and fields the config no longer has (old spec files).
    for field in ("num_subflowz", "scheduler", "queue_kind"):
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(
            '{"name": "x", "scenarios": ["baseline"], "protocols": ["tcp"],'
            f' "sweeps": {{"{field}": [2, 4]}}}}'
        )
        code = main(["campaign", command, "--store", str(tmp_path / "store"),
                     "--spec", str(spec_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"campaign command failed: unknown config field(s) ['{field}'] "
            "in sweeps/config_overrides\n"
        )


@pytest.mark.parametrize("command", ["status", "run"])
def test_campaign_sweep_over_an_unknown_choice_fails_before_the_store(
    command, tmp_path, capsys
) -> None:
    # A config value ExperimentConfig rejects must never be simulated and
    # stored under the key of a config that cannot exist.
    spec_file = tmp_path / "campaign.json"
    spec_file.write_text(
        '{"name": "x", "scenarios": ["baseline"], "protocols": ["tcp"],'
        ' "sweeps": {"switching_policy": ["bogus"]}}'
    )
    store = tmp_path / "store"
    code = main(["campaign", command, "--store", str(store), "--spec", str(spec_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        "campaign command failed: unknown switching policy 'bogus'; expected one of ")
    assert captured.err.count("\n") == 1
    assert not store.exists()


# ---------------------------------------------------------------------------
# One failure path: anticipated errors exit 2 with one stderr line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["run", "--k", "3"],
    ["run", "--subflows", "0"],
    ["run", "--max-short-flows", "-3"],
    ["loadsweep", "--factors", "-1"],
    ["hotspot", "--hotspot-fraction", "2"],
    ["incast", "--fan-ins", "0"],
    ["trace", "export", "<dir>/missing.jsonl", "--output", "<dir>/out.json"],
    # A repeated grid value would be two cells with one store key.
    ["campaign", "run", "--store", "<dir>/store", "--fidelities", "packet", "packet"],
    ["campaign", "run", "--store", "<dir>/store", "--transports", "tcp", "tcp"],
    ["campaign", "status", "--store", "<dir>/store", "--scenarios", "baseline", "baseline"],
    ["scenarios", "matrix", "--transports", "tcp", "tcp"],
    ["scenarios", "matrix", "--scenarios", "baseline", "baseline"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_line_and_no_traceback(argv, tmp_path, capsys) -> None:
    assert main([arg.replace("<dir>", str(tmp_path)) for arg in argv]) == 2
    err = capsys.readouterr().err
    # The sub-command's failure prefix, then the one-line reason.
    assert err.startswith(f"{argv[0]} ") and " failed: " in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert not (tmp_path / "store").exists()


def test_store_verify_on_a_missing_store_fails(tmp_path, capsys) -> None:
    missing = tmp_path / "typo"
    assert main(["store", "verify", "--store", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"store verify failed: no run store at {missing}\n"
    assert not missing.exists()
    # An existing, empty store is healthy.
    assert main(["store", "verify", "--store", str(tmp_path)]) == 0
    assert "artifacts=0 ok=0 corrupt=0" in capsys.readouterr().out


def test_store_gc_on_a_missing_store_fails(tmp_path, capsys) -> None:
    missing = tmp_path / "typo"
    assert main(["store", "gc", "--store", str(missing), "--budget", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"store gc failed: no run store at {missing}\n"
    assert not missing.exists()
    assert main(["store", "gc", "--store", str(tmp_path), "--budget", "0"]) == 0
    assert "evicted 0 artifact(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The CLI offers exactly the config's legal values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flag", [flag for flag in CONFIG_FLAGS.values() if "choices" in flag.argparse],
    ids=lambda flag: flag.option,
)
def test_config_flag_choices_are_the_configs_legal_values(flag) -> None:
    offered = flag.argparse["choices"]
    assert set(offered) == set(CHOICES[flag.param])
    for value in offered:
        config = _config_from_args(build_parser().parse_args(["run", flag.option, value]))
        assert getattr(config, flag.param) == value
        if flag.plural:
            args = build_parser().parse_args([
                "campaign", "status", "--store", "unused", "--scenarios", "baseline",
                "--transports", "mmptcp", flag.plural, value,
            ])
            (cell,) = campaign_run_specs(_campaign_spec_from_args(args))
            assert getattr(cell.config, flag.param) == value


# ---------------------------------------------------------------------------
# Import hygiene
# ---------------------------------------------------------------------------


#: Simulator code the warm path (parse, keys, store reads, rows, report) never needs.
_SIMULATOR_MODULES = (
    "repro.sim.engine",
    "repro.net.link",
    "repro.net.host",
    "repro.topology.base",
    "repro.transport.tcp",
    "repro.experiments.runner",
    "repro.analysis.lint.core",
)

_ROOT = Path(__file__).resolve().parent.parent


def _loaded_by(statements: str, *modules: str) -> list:
    """Which of ``modules`` a fresh interpreter holds after running ``statements``."""
    script = (
        f"import json, sys\n{statements}\n"
        f"print(json.dumps(sorted(set({modules!r}) & set(sys.modules))))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
        cwd=_ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_importing_the_cli_needs_only_the_standard_library() -> None:
    """numpy and networkx are test oracles, and the CLI loads no simulator code."""
    assert _loaded_by("import repro, repro.cli", "numpy", "networkx", *_SIMULATOR_MODULES) == []


@pytest.mark.parametrize(
    "module", ["repro.store.runstore", "repro.campaigns.runner", "repro.experiments.parallel"]
)
def test_warm_path_modules_load_no_simulator(module) -> None:
    assert _loaded_by(f"import {module}", *_SIMULATOR_MODULES) == []


def test_a_warm_campaign_run_loads_no_simulator(tmp_path) -> None:
    argv = ["campaign", "run", "--store", str(tmp_path), "--scenarios", "baseline",
            "--transports", "tcp"]
    assert main(argv) == 0  # the cold run fills the store
    warm = f"from repro.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_by(warm, *_SIMULATOR_MODULES) == []


def _packages() -> list:
    source = _ROOT / "src"
    return sorted(
        ".".join(path.parent.relative_to(source).parts) for path in source.rglob("__init__.py")
    )


@pytest.mark.parametrize("package", _packages())
def test_every_lazy_export_resolves(package) -> None:
    module = importlib.import_module(package)
    exports = getattr(module, "__all__", ())
    for name in exports:
        getattr(module, name)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(exports) <= set(namespace)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")
