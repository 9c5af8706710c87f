"""Command-line interface for the MMPTCP reproduction.

Exposes the experiment harness without writing any Python::

    repro-mmptcp run --protocol mmptcp --subflows 8 --k 4 --hosts-per-edge 8
    repro-mmptcp figure1a --scale quick
    repro-mmptcp section3 --scale quick --export-dir results/
    repro-mmptcp loadsweep --factors 0.5 1.0 2.0 --workers 4
    repro-mmptcp coexistence
    repro-mmptcp incast --fan-ins 8 16 32 --topologies fattree dualhomed
    repro-mmptcp scenarios list
    repro-mmptcp scenarios run core-link-failure --protocol mmptcp
    repro-mmptcp scenarios run vm-migration --protocol mmptcp
    repro-mmptcp scenarios matrix --workers 4 --export-dir results/
    repro-mmptcp scenarios matrix --scenarios vm-migration rolling-drain \
        --transports tcp mmptcp
    repro-mmptcp run --fidelity flow --max-short-flows 5000
    repro-mmptcp campaign run --store results/store --workers 4 --report report.md
    repro-mmptcp campaign run --store results/store --fidelities packet flow
    repro-mmptcp campaign status --store results/store
    repro-mmptcp campaign report --store results/store --output report.md
    repro-mmptcp campaign gc --store results/store
    repro-mmptcp campaign run --store results/store --progress-events events.jsonl
    repro-mmptcp campaign status --store results/store --summary
    repro-mmptcp store verify --store results/store
    repro-mmptcp store gc --store results/store --budget 100000000 --dry-run
    repro-mmptcp run --probes all --profile --telemetry-out run.telemetry.jsonl
    repro-mmptcp scenarios matrix --probes transport faults --telemetry-dir results/
    repro-mmptcp trace export run.telemetry.jsonl --output run.trace.json

Every study sub-command prints its study's table (the rows the claims in
``benchmarks/test_claims.py`` read) and can optionally export per-flow CSVs /
JSON summaries via ``--export-dir``.

Each flag that sets an :class:`ExperimentConfig` field is declared once, in
:data:`CONFIG_FLAGS`, its ``choices`` taken from
:data:`repro.experiments.config.CHOICES`; every other flag two sub-commands
share is declared once, in :data:`_SHARED_FLAGS`.  :func:`main` is the one failure
path: an anticipated error (a rejected config value, a bad ``--spec``, an
unknown scenario, a missing or corrupt store) exits 2 with one stderr line.

Start-up is part of every command's cost, and a fully cached ``campaign
run`` simulates nothing.  So this module imports at the top only what the
parser needs (:data:`CONFIG_FLAGS`, ``CHOICES``, the :data:`STUDIES`
metadata) and the records the handlers share; each handler imports the
implementation it runs (the simulator, the linter, the campaign runner, the
trace exporter).  ``tests/test_cli.py`` checks that ``import repro.cli``
loads no simulator module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.campaigns.spec import CampaignSpec
from repro.experiments.config import CHOICES, SCALES, ExperimentConfig
from repro.experiments.parallel import RunSpec, execute_spec, workers_argument_type
from repro.experiments.study import STUDIES, Flag, run_points, run_study, study_rows
from repro.metrics.collector import ExperimentResult
from repro.metrics.export import (
    dumps_deterministic,
    write_flow_records_csv,
    write_series_csv,
    write_summary_json,
)
from repro.metrics.reporting import render_table, rows_table
from repro.obs.telemetry import ALL_GROUPS, PROBE_GROUPS, telemetry_jsonl
from repro.scenarios.registry import UnknownScenarioError, all_scenarios, get_scenario
from repro.scenarios.runner import (
    DEFAULT_MATRIX_PROTOCOLS,
    DEFAULT_MATRIX_SCENARIOS,
    cell_rows,
    matrix_plan,
)
from repro.scenarios.spec import SCENARIO_SCALES, scale_config
from repro.sim.units import megabits_per_second
from repro.store.runstore import RunStore, StoreError, StoreIntegrityError
from repro.traffic.flowspec import ALL_PROTOCOLS, PROTOCOL_MMPTCP

#: Every config-backed flag, declared once and keyed by option, in ``run``'s
#: order: the option, the config field, the ``argparse`` kwargs, the
#: converter and — for the campaign sweep axes — the plural option.  A flag
#: left at ``None`` sets nothing.
CONFIG_FLAGS: Dict[str, Flag] = {flag.option: flag for flag in (
    Flag("--subflows", "num_subflows",
         dict(type=int, default=8, help="MPTCP/MMPTCP subflow count")),
    Flag("--protocol", "protocol", dict(choices=CHOICES["protocol"], default=PROTOCOL_MMPTCP)),
    Flag("--k", "fattree_k", dict(type=int, help="FatTree arity")),
    Flag("--hosts-per-edge", "hosts_per_edge", dict(type=int)),
    Flag("--link-mbps", "link_rate_bps", dict(type=float), convert=megabits_per_second),
    Flag("--max-short-flows", "max_short_flows", dict(type=int)),
    Flag("--arrival-rate", "short_flow_rate_per_sender",
         dict(type=float, help="short flows per second per sender")),
    Flag("--topology", "topology", dict(choices=CHOICES["topology"])),
    Flag("--switching", "switching_policy", dict(choices=CHOICES["switching_policy"])),
    Flag("--fidelity", "fidelity",
         dict(choices=CHOICES["fidelity"],
              help="simulation fidelity tier: packet = per-segment engine, flow = fluid "
                   "bandwidth sharing for ~100x flow scale (default: packet)"),
         plural="--fidelities"),
)}

#: The table flags every scenario command offers, and their plural forms,
#: which campaigns offer as sweep axes.
_SWEEP_AXES = tuple(option for option, flag in CONFIG_FLAGS.items() if flag.plural)
_PLURAL_FLAGS = {flag.plural: flag for flag in CONFIG_FLAGS.values() if flag.plural}

#: Every shared flag that sets no config field, declared once and keyed by
#: option: its ``argparse`` kwargs.  ``--scale`` is the scenario preset;
#: ``run`` and the studies take the study preset (:data:`SCALES`) instead.
_SHARED_FLAGS: Dict[str, Dict[str, Any]] = {
    "--store": dict(required=True, help="run-store directory (a campaign creates it)"),
    "--spec": dict(default=None, help="campaign spec JSON file (overrides the grid flags)"),
    "--name": dict(default="cli", help="campaign name when no --spec file is given"),
    "--scenarios": dict(nargs="+", default=list(DEFAULT_MATRIX_SCENARIOS),
                        help="scenario names (default: baseline core-link-failure)"),
    "--transports": dict(nargs="+", default=list(DEFAULT_MATRIX_PROTOCOLS),
                         choices=ALL_PROTOCOLS),
    "--replications": dict(type=int, default=1,
                           help="seeded replications per cell (default 1)"),
    "--scale": dict(choices=SCENARIO_SCALES, default="tiny",
                    help="experiment scale (tiny/quick/large/paper)"),
    "--seed": dict(type=int, default=20150817, help="random seed"),
    "--baseline-protocol": dict(default="tcp", choices=ALL_PROTOCOLS,
                                help="protocol the delta columns compare against"),
    "--export-dir": dict(default=None, help="directory for CSV/JSON exports (omit to skip)"),
    "--workers": dict(type=workers_argument_type, default=1,
                      help="process-pool size (1 = serial, 0 = one per CPU; results "
                           "are identical for any value)"),
    "--probes": dict(nargs="+", metavar="GROUP", default=None,
                     choices=(ALL_GROUPS,) + PROBE_GROUPS,
                     help="record telemetry probe groups ('all' or any of: "
                          + ", ".join(PROBE_GROUPS) + "); metrics, goldens and "
                          "store keys are unchanged either way"),
    "--profile": dict(action="store_true",
                      help="profile the event loop; the diagnostics record is "
                           "wall-clock-bearing and excluded from store keys and "
                           "byte-compare surfaces"),
    "--dry-run": dict(action="store_true",
                      help="list what would be deleted without deleting it"),
}


def _config_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """The config overrides of every :data:`CONFIG_FLAGS` entry in ``args``.

    A flag the sub-command lacks or left at ``None`` adds no override, so the
    resulting config — and any store key derived from it — is untouched.
    """
    overrides = {flag.param: flag.value(args) for flag in CONFIG_FLAGS.values()}
    return {name: value for name, value in overrides.items() if value is not None}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--scale`` / ``--seed`` preset with the given config flags applied."""
    return scale_config(args.scale, args.seed).with_updates(**_config_overrides(args))


def _print_summary(result: ExperimentResult) -> None:
    summary = result.metrics.summary_dict()
    rows = [[key, f"{value:.4f}"] for key, value in sorted(summary.items())]
    print(render_table(["metric", "value"], rows))
    print(
        f"events processed: {result.events_processed}, "
        f"wall-clock: {result.wallclock_s:.1f} s, flows: {result.workload_size}"
    )


def _maybe_export(result: ExperimentResult, export_dir: Optional[str], stem: str) -> None:
    if not export_dir:
        return
    directory = Path(export_dir)
    flows_path = write_flow_records_csv(result.metrics.flows, directory / f"{stem}_flows.csv")
    summary_path = write_summary_json(
        result.metrics,
        directory / f"{stem}_summary.json",
        extra={"protocol": result.config.protocol, "seed": result.config.seed},
    )
    print(f"wrote {flows_path} and {summary_path}")


def _export_rows(rows: List[Dict[str, object]], export_dir: Optional[str], stem: str) -> None:
    if not export_dir or not rows:
        return
    path = write_series_csv(rows, Path(export_dir) / f"{stem}.csv")
    print(f"wrote {path}")


def _write_text(path: str, text: str, detail: str = "") -> None:
    """Write ``text`` to ``path`` (creating its directory) and say so."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    print(f"wrote {target}{detail}")


def _command_error(message: str) -> int:
    """One-line diagnostic on stderr, exit code 2.

    Where every anticipated CLI failure ends: :func:`main` routes here the
    exceptions a handler raises, and a handler calls it directly for a flag
    combination it refuses (``--telemetry-out`` without probes, a negative
    ``--budget``).
    """
    print(message, file=sys.stderr)
    return 2


def _print_diagnostics(result: ExperimentResult) -> None:
    """One-line ``--profile`` summary (full detail lives in the telemetry output)."""
    diagnostics = result.diagnostics
    if not diagnostics:
        return
    print(f"profile: events={diagnostics['events_processed']} "
          f"us_per_event={diagnostics['us_per_event']:.3f} "
          f"handlers={len(diagnostics['handlers'])}")


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.telemetry_out and not (args.probes or args.profile):
        return _command_error(
            "run: --telemetry-out needs --probes and/or --profile to record anything")
    print(f"running protocol={config.protocol} subflows={config.num_subflows} "
          f"k={config.fattree_k} hosts/edge={config.hosts_per_edge} seed={config.seed}")
    result = execute_spec(
        RunSpec(0, config, probes=tuple(args.probes or ()), profile=args.profile))
    _print_summary(result)
    _print_diagnostics(result)
    _maybe_export(result, args.export_dir, f"run_{config.protocol}")
    if args.telemetry_out:
        _write_text(args.telemetry_out, telemetry_jsonl(result.telemetry))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    """The one handler behind every :data:`STUDIES` sub-command."""
    study = STUDIES[args.command]
    config = _config_from_args(args)
    params = {flag.param: flag.value(args) for flag in study.flags}
    points = run_study(study, config, getattr(args, "workers", 1), **params)
    print(study.title.format(**params))
    if study.per_flow:
        _print_summary(points[0].result)
        _maybe_export(points[0].result, args.export_dir, study.name)
        return 0
    rows = study_rows(points)
    print(rows_table(rows))
    if study.footer is not None:
        print(study.footer(points))
    _export_rows(rows, args.export_dir, study.name)
    return 0


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "workload": spec.workload,
            "faults": len(spec.faults),
            "description": spec.description,
        }
        for spec in all_scenarios()
    ]
    print("Registered scenarios")
    print(rows_table(rows))
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    scenario = get_scenario(args.name)
    (point,) = run_points(matrix_plan(base, (args.name,), (args.protocol,)), cell_rows)
    print(f"scenario={point.scenario} protocol={point.protocol} "
          f"faults={point.faults} workload={scenario.workload}")
    if scenario.description:
        print(scenario.description)
    _print_summary(point.result)
    _maybe_export(point.result, args.export_dir, f"scenario_{point.scenario}_{point.protocol}")
    return 0


def _cmd_scenarios_matrix(args: argparse.Namespace) -> int:
    from repro.analysis.report import scenario_matrix_markdown

    base = _config_from_args(args)
    if args.telemetry_dir and not (args.probes or args.profile):
        return _command_error(
            "scenarios matrix: --telemetry-dir needs --probes and/or --profile")
    plan = matrix_plan(
        base, args.scenarios, args.transports, tuple(args.probes or ()), args.profile
    )
    points = run_points(plan, cell_rows, args.workers)
    rows = study_rows(points)
    print(f"Scenario matrix — {len(args.scenarios)} scenario(s) × "
          f"{len(args.transports)} transport(s)")
    print(rows_table(rows))
    baseline = args.baseline_protocol
    if baseline in args.transports:
        print()
        print(scenario_matrix_markdown(rows, baseline_protocol=baseline))
    else:
        print(f"(no delta table: baseline protocol {baseline!r} is not among "
              f"the requested transports {list(args.transports)})")
    _export_rows(rows, args.export_dir, "scenario_matrix")
    if args.telemetry_dir:
        directory = Path(args.telemetry_dir)
        directory.mkdir(parents=True, exist_ok=True)
        recorded = [point for point in points if point.result.telemetry is not None]
        for point in recorded:
            path = directory / f"telemetry_{point.scenario}_{point.protocol}.jsonl"
            path.write_text(telemetry_jsonl(point.result.telemetry))
        print(f"wrote telemetry for {len(recorded)} cell(s) to {directory}")
    return 0


# ---------------------------------------------------------------------------
# Campaign commands
# ---------------------------------------------------------------------------


def _campaign_spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    """The campaign spec: from ``--spec FILE`` when given, else from flags."""
    if args.spec:
        return CampaignSpec.from_file(args.spec)
    # Each plural table flag given becomes an ordinary sweep axis; omitting
    # one adds no axis, so cell labels and cache keys of existing campaigns
    # are untouched.
    axes = ((flag.param, flag.sweep(args)) for flag in _PLURAL_FLAGS.values())
    return CampaignSpec(
        name=args.name,
        scenarios=tuple(args.scenarios),
        protocols=tuple(args.transports),
        replications=args.replications,
        scale=args.scale,
        seed=args.seed,
        sweeps=tuple((name, values) for name, values in axes if values),
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.analysis.report import campaign_report_markdown, replication_summary_rows
    from repro.campaigns.runner import campaign_rows, run_campaign

    spec = _campaign_spec_from_args(args)
    emit_event = None
    events_file = None
    if args.progress_events:
        events_path = Path(args.progress_events)
        events_path.parent.mkdir(parents=True, exist_ok=True)
        events_file = events_path.open("w", encoding="utf-8")

        def emit_event(event: Dict[str, object]) -> None:
            # One compact deterministic-dump line per event, flushed
            # immediately so a tailing operator sees progress live.
            events_file.write(dumps_deterministic(event, indent=None))
            events_file.flush()

    try:
        outcome = run_campaign(spec, RunStore(args.store), workers=args.workers,
                               events=emit_event)
    finally:
        if events_file is not None:
            events_file.close()
    if args.progress_events:
        print(f"wrote {args.progress_events}")
    rows = campaign_rows(outcome.cells)
    print(f"Campaign '{spec.name}' — {len(spec.scenarios)} scenario(s) × "
          f"{len(spec.protocols)} transport(s) × {len(spec.sweep_points())} sweep "
          f"point(s) × {spec.replications} replication(s)")
    print(rows_table(rows))
    if spec.replications > 1:
        print()
        print("Across replications (mean ± 95% CI)")
        print(rows_table(replication_summary_rows(rows)))
    # The machine-greppable outcome line (CI asserts on ``simulated=``).
    print(f"campaign '{spec.name}': cells={len(outcome.cells)} "
          f"cache_hits={outcome.cache_hits} simulated={outcome.simulated} store={args.store}")
    if args.report:
        # The rows just printed yield bytes identical to campaign_report's
        # store-backed path, without re-reading the artifacts just written.
        _write_text(args.report, campaign_report_markdown(spec, rows, args.baseline_protocol))
    _export_rows(rows, args.export_dir, f"campaign_{spec.name}")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaigns.runner import campaign_status, status_rows, status_summary_rows

    spec = _campaign_spec_from_args(args)
    cells = campaign_status(spec, RunStore(args.store))
    rows = (status_summary_rows if args.summary else status_rows)(cells)
    print(f"Campaign '{spec.name}' store status — {args.store}")
    print(rows_table(rows))
    stored = sum(1 for cell in cells if cell.cached)
    print(f"campaign '{spec.name}': cells={len(cells)} stored={stored} "
          f"missing={len(cells) - stored}")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaigns.runner import CampaignIncompleteError, campaign_report

    try:
        report = campaign_report(_campaign_spec_from_args(args), RunStore(args.store),
                                 baseline_protocol=args.baseline_protocol)
    except CampaignIncompleteError as exc:
        return _command_error(str(exc))
    if args.output:
        _write_text(args.output, report)
    else:
        print(report, end="")
    return 0


def _cmd_campaign_gc(args: argparse.Namespace) -> int:
    from repro.campaigns.runner import campaign_gc

    spec = _campaign_spec_from_args(args)
    removed = campaign_gc(spec, RunStore(args.store), dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for key in removed:
        print(f"{verb} {key}")
    print(f"campaign '{spec.name}' gc: {verb} {len(removed)} artifact(s) "
          f"from {args.store}")
    return 0


# ---------------------------------------------------------------------------
# Store commands
# ---------------------------------------------------------------------------


def _existing_store(path: str) -> RunStore:
    """The run store at ``path``; a missing directory is an error, not an empty store."""
    if not Path(path).is_dir():
        raise StoreError(f"no run store at {path}")
    return RunStore(path)


def _cmd_store_verify(args: argparse.Namespace) -> int:
    """Re-verify every stored artifact's embedded integrity hashes.

    Walks the store's ``objects/`` tree and re-reads each artifact through
    the verified path, so bit-rot, truncation or tampering anywhere in the
    payload surfaces as a per-key diagnostic and exit code 2.
    """
    store = _existing_store(args.store)
    keys = store.keys()
    total_bytes = corrupt = 0
    for key in keys:
        total_bytes += store.object_path(key).stat().st_size
        try:
            store.get_artifact(key)
        except StoreIntegrityError as exc:
            corrupt += 1
            print(f"corrupt {key}: {exc}", file=sys.stderr)
    print(f"store '{args.store}': artifacts={len(keys)} "
          f"ok={len(keys) - corrupt} corrupt={corrupt} bytes={total_bytes}")
    return 2 if corrupt else 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    """Evict least-recently-used artifacts until the store fits ``--budget``.

    Artifacts go in the deterministic ``(mtime, key)`` LRU order of
    :meth:`RunStore.lru_entries`.  ``--dry-run`` is the preview: it lists
    exactly the keys the sweep would evict without touching the store.
    """
    if args.budget < 0:
        return _command_error("store gc: --budget must be a non-negative byte count")
    store = _existing_store(args.store)
    sizes = {key: size for key, size, _ in store.lru_entries()}
    victims = store.gc_budget(args.budget, dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    for key in victims:
        print(f"{verb} {key} ({sizes.get(key, 0)} bytes)")
    freed = sum(sizes.get(key, 0) for key in victims)
    print(f"store '{args.store}' gc: {verb} {len(victims)} artifact(s) "
          f"freeing {freed} bytes against budget {args.budget}")
    return 0


# ---------------------------------------------------------------------------
# Trace commands
# ---------------------------------------------------------------------------


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Convert a telemetry JSONL file into a Chrome trace-event document.

    The output loads directly in ``chrome://tracing`` or Perfetto's legacy
    JSON importer: series samples become counter tracks, probe and fault
    events become instants, and counters/diagnostics ride along under
    ``otherData``.
    """
    from repro.obs.chrome import chrome_trace_document

    text = Path(args.input).read_text(encoding="utf-8")
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.input}:{number}: {exc}") from exc
    try:
        document = chrome_trace_document(records)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.input} is not a telemetry JSONL file ({exc})") from exc
    _write_text(args.output, dumps_deterministic(document, indent=2),
                f" ({len(document['traceEvents'])} trace event(s))")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint.cli import run_lint_command

    return run_lint_command(args)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add(parser: argparse.ArgumentParser, *options: str) -> None:
    """Add each named flag from its one declaration: :data:`_SHARED_FLAGS`,
    :data:`CONFIG_FLAGS`, or a config flag's plural campaign sweep-axis form."""
    for option in options:
        if option in _PLURAL_FLAGS:
            flag = _PLURAL_FLAGS[option]
            kwargs = dict(flag.argparse, nargs="+", default=None,
                          help=f"sweep axis: {flag.argparse['help']}")
        elif option in CONFIG_FLAGS:
            kwargs = CONFIG_FLAGS[option].argparse
        else:
            kwargs = _SHARED_FLAGS[option]
        parser.add_argument(option, **kwargs)


def _command(subparsers, name: str, handler, failure: str, *options: str,
             **kwargs: Any) -> argparse.ArgumentParser:
    """A leaf sub-command with the shared ``options``, its handler and the
    ``failure`` prefix :func:`main` puts before an anticipated error."""
    parser = subparsers.add_parser(name, **kwargs)
    _add(parser, *options)
    parser.set_defaults(handler=handler, failure=failure)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-mmptcp",
        description="MMPTCP reproduction: run experiments and regenerate the paper's results",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def group(name: str, dest: str, help_text: str):
        return subparsers.add_parser(name, help=help_text).add_subparsers(dest=dest, required=True)

    def study_command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = _command(subparsers, name, handler, f"{name} failed", help=help_text)
        sub.add_argument("--scale", choices=SCALES, default="quick",
                         help="experiment scale (quick/large/paper)")
        _add(sub, "--seed", "--subflows", "--export-dir")
        return sub

    run_parser = study_command("run", _cmd_run, "run one experiment")
    _add(run_parser, *(option for option in CONFIG_FLAGS if option != "--subflows"),
         "--probes", "--profile")
    run_parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                            help="write the run's telemetry JSONL here "
                                 "(needs --probes and/or --profile)")

    for study in STUDIES.values():
        sub = study_command(study.name, _cmd_study, study.help)
        if study.workers:
            # Only the sub-commands that actually fan points out accept the
            # flag; accepting-and-ignoring it elsewhere would mislead.
            _add(sub, "--workers")
        for flag in study.flags:
            sub.add_argument(flag.option, **flag.argparse)
        if study.fidelity:
            _add(sub, "--fidelity")

    scenario_sub = group("scenarios", "scenario_command",
                         "declarative fault-injection scenarios and matrices")
    _command(scenario_sub, "list", _cmd_scenarios_list, "scenarios failed",
             help="list the registered scenarios")
    scen_run = _command(scenario_sub, "run", _cmd_scenarios_run, "scenarios failed",
                        help="run one scenario for one transport")
    scen_run.add_argument("name", help="registered scenario name (see 'scenarios list')")
    _add(scen_run, "--protocol", "--scale", "--seed", "--export-dir", *_SWEEP_AXES)
    scen_matrix = _command(
        scenario_sub, "matrix", _cmd_scenarios_matrix, "scenarios failed",
        "--scenarios", "--transports", "--baseline-protocol", "--scale", "--seed",
        "--export-dir", *_SWEEP_AXES, "--workers", "--probes", "--profile",
        help="run a scenario × transport matrix (parallelisable)")
    scen_matrix.add_argument("--telemetry-dir", default=None, metavar="DIR",
                             help="write one telemetry JSONL per cell here "
                                  "(needs --probes and/or --profile)")

    lint = _command(
        subparsers, "lint", _cmd_lint, "lint failed",
        help="statically enforce the determinism/JSON/pool/store/timer invariants",
        description="AST-based invariant linter; exits 0 on a clean tree, 1 on "
        "violations, 2 on usage errors. Silence a finding with a justified "
        "'# repro: allow[rule-name]' comment on (or directly above) its line.",
    )
    lint.add_argument("paths", nargs="*", default=["src", "tests"],
                      help="files or directories to lint (default: src tests)")
    lint.add_argument("--format", choices=("human", "json"), default="human",
                      help="report format (json is byte-stable via dumps_deterministic)")
    lint.add_argument("--rules", type=lambda names: names.split(","), default=None,
                      metavar="RULE[,RULE...]",
                      help="run only these comma-separated rules (default: all registered rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules with their descriptions and exit")

    store_sub = group("store", "store_command",
                      "inspect and verify a content-addressed run store")
    _command(store_sub, "verify", _cmd_store_verify, "store verify failed", "--store",
             help="re-verify every artifact's integrity hashes (exit 2 on corruption)")
    store_gc = _command(
        store_sub, "gc", _cmd_store_gc, "store gc failed", "--store",
        help="evict least-recently-used artifacts until the store fits a byte budget")
    store_gc.add_argument("--budget", type=int, required=True, metavar="BYTES",
                          help="target store size; oldest-touched artifacts are "
                               "evicted in deterministic (mtime, key) order "
                               "until the rest fits")
    _add(store_gc, "--dry-run")

    trace_sub = group("trace", "trace_command", "telemetry timeline tools")
    trace_export = _command(
        trace_sub, "export", _cmd_trace_export, "trace export failed",
        help="convert telemetry JSONL into Chrome trace-event / Perfetto JSON")
    trace_export.add_argument("input",
                              help="telemetry JSONL file (from --telemetry-out "
                                   "or --telemetry-dir)")
    trace_export.add_argument("--output", required=True,
                              help="destination timeline JSON (open in "
                                   "chrome://tracing or ui.perfetto.dev)")

    campaign_sub = group(
        "campaign", "campaign_command",
        "resumable, store-backed campaigns (scenario × transport × sweep × replication)")

    def campaign_command(name: str, handler, help_text: str,
                         *options: str) -> argparse.ArgumentParser:
        return _command(
            campaign_sub, name, handler, "campaign command failed",
            "--store", "--spec", "--name", "--scenarios", "--transports", "--replications",
            "--scale", "--seed", *_PLURAL_FLAGS, "--baseline-protocol", *options,
            help=help_text)

    camp_run = campaign_command(
        "run", _cmd_campaign_run,
        "run the campaign with cache-aware dispatch (hits skip simulation)", "--workers")
    camp_run.add_argument("--report", default=None,
                          help="also write the markdown report to this file")
    _add(camp_run, "--export-dir")
    camp_run.add_argument("--progress-events", default=None, metavar="FILE",
                          help="write structured JSONL progress events "
                               "(campaign_start, cell_hit, cell_start, "
                               "cell_finish, campaign_finish) to this file; "
                               "operator telemetry in completion order, never "
                               "a byte-compare surface")
    camp_status = campaign_command(
        "status", _cmd_campaign_status,
        "show which cells are persisted, without running anything")
    camp_status.add_argument("--summary", action="store_true",
                             help="aggregate to one row per (scenario, protocol) "
                                  "with stored/missing counts instead of per cell")
    camp_report = campaign_command(
        "report", _cmd_campaign_report,
        "regenerate the report from stored artifacts (zero simulation)")
    camp_report.add_argument("--output", default=None,
                             help="write the markdown report here (default: stdout)")
    campaign_command(
        "gc", _cmd_campaign_gc,
        "drop this campaign's stored artifacts that the spec no longer declares "
        "(other campaigns in the store are untouched)", "--dry-run")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``repro-mmptcp`` console script.

    An unknown scenario prints its own message; the other anticipated errors
    get the sub-command's ``failure`` prefix (set by its parser).  Anything
    else is a bug and keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UnknownScenarioError as exc:
        return _command_error(str(exc))
    except (StoreError, OSError, ValueError) as exc:
        return _command_error(f"{args.failure}: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
