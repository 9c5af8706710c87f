"""Command-line interface for the MMPTCP reproduction.

Exposes the experiment harness without writing any Python::

    repro-mmptcp run --protocol mmptcp --subflows 8 --k 4 --hosts-per-edge 8
    repro-mmptcp figure1a --scale quick
    repro-mmptcp section3 --scale quick --export-dir results/
    repro-mmptcp loadsweep --factors 0.5 1.0 2.0 --workers 4
    repro-mmptcp coexistence
    repro-mmptcp incast --fan-ins 8 16 32 --topologies fattree dualhomed
    repro-mmptcp deadlines --slack 2.0
    repro-mmptcp scenarios list
    repro-mmptcp scenarios run core-link-failure --protocol mmptcp
    repro-mmptcp scenarios run vm-migration --protocol mmptcp
    repro-mmptcp scenarios matrix --workers 4 --export-dir results/
    repro-mmptcp scenarios matrix --scenarios vm-migration vip-failover \
        --transports tcp mmptcp
    repro-mmptcp run --fidelity flow --max-short-flows 5000
    repro-mmptcp campaign run --store results/store --workers 4 --report report.md
    repro-mmptcp campaign run --store results/store --fidelities packet flow
    repro-mmptcp campaign status --store results/store
    repro-mmptcp campaign report --store results/store --output report.md
    repro-mmptcp campaign gc --store results/store
    repro-mmptcp campaign run --store results/store --progress-events events.jsonl
    repro-mmptcp campaign status --store results/store --summary
    repro-mmptcp store verify --store results/store --budget 100000000
    repro-mmptcp store gc --store results/store --budget 100000000 --dry-run
    repro-mmptcp run --probes all --profile --telemetry-out run.telemetry.jsonl
    repro-mmptcp scenarios matrix --probes transport faults --telemetry-dir results/
    repro-mmptcp trace export run.telemetry.jsonl --output run.trace.json

Every sub-command prints the same tables the corresponding benchmark prints
and can optionally export per-flow CSVs / JSON summaries via
``--export-dir``.

Each flag that sets an :class:`ExperimentConfig` field is declared once, in
:data:`CONFIG_FLAGS`, its ``choices`` taken from
:data:`repro.experiments.config.CHOICES`.  :func:`main` is the one failure
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
from repro.experiments.parallel import workers_argument_type
from repro.experiments.study import STUDIES, Flag, run_points, run_study, study_rows
from repro.metrics.collector import ExperimentResult
from repro.metrics.export import (
    dumps_deterministic,
    write_flow_records_csv,
    write_series_csv,
    write_summary_json,
)
from repro.metrics.reporting import render_table, rows_table
from repro.obs.telemetry import (
    ALL_GROUPS,
    PROBE_GROUPS,
    make_recorder,
    probe_groups_argument,
    telemetry_jsonl,
    telemetry_records,
)
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
    Flag("--queue", "queue_kind", dict(choices=CHOICES["queue_kind"])),
    Flag("--switching", "switching_policy", dict(choices=CHOICES["switching_policy"])),
    Flag("--scheduler", "scheduler",
         dict(choices=CHOICES["scheduler"], help="MPTCP chunk scheduler (default: fcfs)"),
         plural="--schedulers"),
    Flag("--path-manager", "path_manager",
         dict(choices=CHOICES["path_manager"],
              help="MPTCP subflow creation policy (default: ndiffports)"),
         plural="--path-managers"),
    Flag("--fidelity", "fidelity",
         dict(choices=CHOICES["fidelity"],
              help="simulation fidelity tier: packet = per-segment engine, flow = fluid "
                   "bandwidth sharing for ~100x flow scale (default: packet)"),
         plural="--fidelities"),
)}

#: The table flags every scenario command offers, and campaigns as sweep axes.
_SWEEP_AXES = tuple(option for option, flag in CONFIG_FLAGS.items() if flag.plural)


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


def _command_error(message: str) -> int:
    """One-line diagnostic on stderr, exit code 2.

    Where every anticipated CLI failure ends: :func:`main` routes here the
    exceptions a handler raises, and a handler calls it directly for a flag
    combination it refuses (``--telemetry-out`` without probes, a
    non-positive ``--budget``).
    """
    print(message, file=sys.stderr)
    return 2


def _probe_groups_from_args(args: argparse.Namespace):
    """The validated, sorted-deduplicated ``--probes`` tuple (empty = off)."""
    groups = getattr(args, "probes", None)
    if not groups:
        return ()
    return probe_groups_argument(groups)


def _telemetry_text(result: ExperimentResult, recorder, label: str) -> str:
    """One run's telemetry JSONL: recorder content, else a bare diagnostics line."""
    if recorder is not None:
        return telemetry_jsonl(
            telemetry_records(recorder, label=label, diagnostics=result.diagnostics)
        )
    return telemetry_jsonl([{"kind": "diagnostics", "diagnostics": result.diagnostics}])


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
    from repro.experiments.runner import run_experiment

    config = _config_from_args(args)
    if args.telemetry_out and not (args.probes or args.profile):
        return _command_error(
            "run: --telemetry-out needs --probes and/or --profile to record anything")
    print(f"running protocol={config.protocol} subflows={config.num_subflows} "
          f"k={config.fattree_k} hosts/edge={config.hosts_per_edge} seed={config.seed}")
    recorder = make_recorder(_probe_groups_from_args(args))
    result = run_experiment(config, probes=recorder, profile=args.profile)
    _print_summary(result)
    _print_diagnostics(result)
    _maybe_export(result, args.export_dir, f"run_{config.protocol}")
    if args.telemetry_out:
        path = Path(args.telemetry_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_telemetry_text(result, recorder, f"run_{config.protocol}"))
        print(f"wrote {path}")
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
        base, args.scenarios, args.transports, _probe_groups_from_args(args), args.profile
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
        written = 0
        for point in points:
            if point.result.telemetry is None:
                continue
            path = directory / f"telemetry_{point.scenario}_{point.protocol}.jsonl"
            path.write_text(telemetry_jsonl(point.result.telemetry))
            written += 1
        print(f"wrote telemetry for {written} cell(s) to {directory}")
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
    axes = ((flag.param, flag.sweep(args)) for flag in CONFIG_FLAGS.values() if flag.plural)
    return CampaignSpec(
        name=args.name,
        scenarios=tuple(args.scenarios),
        protocols=tuple(args.transports),
        replications=args.replications,
        scale=args.scale,
        seed=args.seed,
        sweeps=tuple((name, values) for name, values in axes if values),
    )


def _campaign_summary_line(name: str, cells: int, hits: int, simulated: int, store: str) -> str:
    """The machine-greppable one-line outcome (CI asserts on ``simulated=``)."""
    return (
        f"campaign '{name}': cells={cells} cache_hits={hits} "
        f"simulated={simulated} store={store}"
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
    print(_campaign_summary_line(
        spec.name, len(outcome.cells), outcome.cache_hits, outcome.simulated, args.store
    ))
    if args.report:
        # The rows just printed yield bytes identical to campaign_report's
        # store-backed path, without re-reading the artifacts just written.
        report = campaign_report_markdown(spec, rows, args.baseline_protocol)
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"wrote {path}")
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
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"wrote {path}")
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
    payload surfaces as a per-key diagnostic and exit code 2.  With
    ``--budget`` it additionally reports size usage and previews which
    artifacts a least-recently-used eviction would drop — report only,
    nothing is deleted (groundwork for a future size-capped store).
    """
    if args.budget is not None and args.budget <= 0:
        return _command_error("store verify: --budget must be a positive byte count")
    store = _existing_store(args.store)
    entries = []  # (key, size_bytes, mtime_ns, error_or_None)
    for key in store.keys():
        stat = store.object_path(key).stat()
        error = None
        try:
            store.get_artifact(key)
        except StoreIntegrityError as exc:
            error = str(exc)
        entries.append((key, stat.st_size, stat.st_mtime_ns, error))
    corrupt = [(key, error) for key, _, _, error in entries if error]
    for key, error in corrupt:
        print(f"corrupt {key}: {error}", file=sys.stderr)
    total_bytes = sum(size for _, size, _, _ in entries)
    print(
        f"store '{args.store}': artifacts={len(entries)} "
        f"ok={len(entries) - len(corrupt)} corrupt={len(corrupt)} bytes={total_bytes}"
    )
    if args.budget is not None:
        print(f"budget: {total_bytes}/{args.budget} bytes "
              f"({100.0 * total_bytes / args.budget:.1f}% used)")
        if total_bytes > args.budget:
            excess = total_bytes - args.budget
            # Preview via the exact selection 'store gc --budget' would make:
            # same (mtime, key) LRU order, same stop condition.
            sizes = {key: size for key, size, _, _ in entries}
            victims = store.gc_budget(args.budget, dry_run=True)
            freed = sum(sizes.get(key, 0) for key in victims)
            print(f"over budget by {excess} bytes; 'store gc --budget "
                  f"{args.budget}' would evict {len(victims)} artifact(s) "
                  f"freeing {freed} bytes:")
            for key in victims:
                print(f"  evict {key} ({sizes.get(key, 0)} bytes)")
    return 2 if corrupt else 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    """Evict least-recently-used artifacts until the store fits ``--budget``.

    The destructive counterpart of the ``store verify --budget`` preview:
    both rank artifacts by the same deterministic ``(mtime, key)`` LRU order
    (:meth:`RunStore.lru_entries`), so the preview names exactly the keys
    this sweep deletes.  ``--dry-run`` lists the victims without touching
    the store.
    """
    if args.budget < 0:
        return _command_error("store gc: --budget must be a non-negative byte count")
    store = _existing_store(args.store)
    sizes = {key: size for key, size, _ in store.lru_entries()}
    victims = store.gc_budget(args.budget, dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    freed = 0
    for key in victims:
        size = sizes.get(key, 0)
        freed += size
        print(f"{verb} {key} ({size} bytes)")
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
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(dumps_deterministic(document, indent=2))
    print(f"wrote {output} ({len(document['traceEvents'])} trace event(s))")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint.cli import run_lint_command

    return run_lint_command(args)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(
    parser: argparse.ArgumentParser, *options: str, plural: bool = False
) -> None:
    """Add the :data:`CONFIG_FLAGS` entries named by ``options``; ``plural``
    adds their campaign sweep-axis forms instead."""
    for option in options:
        flag = CONFIG_FLAGS[option]
        if plural:
            parser.add_argument(flag.plural, **dict(
                flag.argparse, nargs="+", default=None,
                help=f"sweep axis: {flag.argparse['help']}"))
        else:
            parser.add_argument(option, **flag.argparse)


def _add_workers_argument(parser: argparse.ArgumentParser, what: str = "process-pool size") -> None:
    """``--workers``, validated at parse time (shared with the examples)."""
    parser.add_argument("--workers", type=workers_argument_type, default=1,
                        help=f"{what} (1 = serial, 0 = one per CPU; results "
                             "are identical for any value)")


def _add_probe_arguments(parser: argparse.ArgumentParser) -> None:
    """``--probes`` / ``--profile``: the observability opt-ins (default off)."""
    parser.add_argument("--probes", nargs="+", metavar="GROUP", default=None,
                        choices=(ALL_GROUPS,) + PROBE_GROUPS,
                        help="record telemetry probe groups ('all' or any of: "
                             + ", ".join(PROBE_GROUPS) + "); metrics, goldens "
                             "and store keys are unchanged either way")
    parser.add_argument("--profile", action="store_true",
                        help="profile the event loop; the diagnostics record is "
                             "wall-clock-bearing and excluded from store keys "
                             "and byte-compare surfaces")


def _add_common_arguments(parser: argparse.ArgumentParser, workers: bool = False) -> None:
    parser.add_argument("--scale", choices=SCALES, default="quick",
                        help="experiment scale (quick/large/paper)")
    parser.add_argument("--seed", type=int, default=20150817, help="random seed")
    _add_config_flags(parser, "--subflows")
    parser.add_argument("--export-dir", default=None,
                        help="directory for CSV/JSON exports (omit to skip)")
    if workers:
        # Only the sub-commands that actually fan points out accept the
        # flag; accepting-and-ignoring it elsewhere would mislead.
        _add_workers_argument(parser)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-mmptcp",
        description="MMPTCP reproduction: run experiments and regenerate the paper's results",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    _add_common_arguments(run_parser)
    _add_config_flags(run_parser, *(option for option in CONFIG_FLAGS if option != "--subflows"))
    _add_probe_arguments(run_parser)
    run_parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                            help="write the run's telemetry JSONL here "
                                 "(needs --probes and/or --profile)")
    run_parser.set_defaults(handler=_cmd_run, failure="run failed")

    for study in STUDIES.values():
        sub = subparsers.add_parser(study.name, help=study.help)
        _add_common_arguments(sub, workers=study.workers)
        for flag in study.flags:
            sub.add_argument(flag.option, **flag.argparse)
        if study.fidelity:
            _add_config_flags(sub, "--fidelity")
        sub.set_defaults(handler=_cmd_study, failure=f"{study.name} failed")

    scenarios = subparsers.add_parser(
        "scenarios", help="declarative fault-injection scenarios and matrices")
    scenarios.set_defaults(failure="scenarios failed")
    scenario_sub = scenarios.add_subparsers(dest="scenario_command", required=True)

    scen_list = scenario_sub.add_parser("list", help="list the registered scenarios")
    scen_list.set_defaults(handler=_cmd_scenarios_list)

    def _add_scenario_arguments(sub: argparse.ArgumentParser, workers: bool = False) -> None:
        sub.add_argument("--scale", choices=SCENARIO_SCALES, default="tiny",
                         help="experiment scale (tiny/quick/large/paper)")
        sub.add_argument("--seed", type=int, default=20150817, help="random seed")
        sub.add_argument("--export-dir", default=None,
                         help="directory for CSV/JSON exports (omit to skip)")
        _add_config_flags(sub, *_SWEEP_AXES)
        if workers:
            _add_workers_argument(sub)

    scen_run = scenario_sub.add_parser("run", help="run one scenario for one transport")
    scen_run.add_argument("name", help="registered scenario name (see 'scenarios list')")
    _add_config_flags(scen_run, "--protocol")
    _add_scenario_arguments(scen_run)
    scen_run.set_defaults(handler=_cmd_scenarios_run)

    scen_matrix = scenario_sub.add_parser(
        "matrix", help="run a scenario × transport matrix (parallelisable)")
    scen_matrix.add_argument("--scenarios", nargs="+", default=list(DEFAULT_MATRIX_SCENARIOS),
                             help="scenario names (default: baseline core-link-failure)")
    scen_matrix.add_argument("--transports", nargs="+",
                             default=list(DEFAULT_MATRIX_PROTOCOLS), choices=ALL_PROTOCOLS)
    scen_matrix.add_argument("--baseline-protocol", default="tcp", choices=ALL_PROTOCOLS,
                             help="protocol the delta columns compare against")
    _add_scenario_arguments(scen_matrix, workers=True)
    _add_probe_arguments(scen_matrix)
    scen_matrix.add_argument("--telemetry-dir", default=None, metavar="DIR",
                             help="write one telemetry JSONL per cell here "
                                  "(needs --probes and/or --profile)")
    scen_matrix.set_defaults(handler=_cmd_scenarios_matrix)

    lint = subparsers.add_parser(
        "lint",
        help="statically enforce the determinism/JSON/pool/store/timer invariants",
        description="AST-based invariant linter; exits 0 on a clean tree, 1 on "
        "violations, 2 on usage errors. Silence a finding with a justified "
        "'# repro: allow[rule-name]' comment on (or directly above) its line.",
    )
    lint.add_argument("paths", nargs="*", default=["src", "tests"],
                      help="files or directories to lint (default: src tests)")
    lint.add_argument("--format", choices=("human", "json"), default="human",
                      help="report format (json is byte-stable via dumps_deterministic)")
    lint.add_argument("--rules", nargs="+", default=None, metavar="RULE",
                      help="run only these rules (default: all registered rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules with their descriptions and exit")
    lint.set_defaults(handler=_cmd_lint, failure="lint failed")

    store_parser = subparsers.add_parser(
        "store", help="inspect and verify a content-addressed run store")
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    store_verify = store_sub.add_parser(
        "verify",
        help="re-verify every artifact's integrity hashes (exit 2 on corruption)")
    store_verify.add_argument("--store", required=True,
                              help="run-store directory to verify")
    store_verify.add_argument("--budget", type=int, default=None, metavar="BYTES",
                              help="also report size usage against a byte budget "
                                   "and preview an LRU eviction (nothing is deleted)")
    store_verify.set_defaults(handler=_cmd_store_verify, failure="store verify failed")

    store_gc = store_sub.add_parser(
        "gc",
        help="evict least-recently-used artifacts until the store fits a byte budget")
    store_gc.add_argument("--store", required=True,
                          help="run-store directory to sweep")
    store_gc.add_argument("--budget", type=int, required=True, metavar="BYTES",
                          help="target store size; oldest-touched artifacts are "
                               "evicted in deterministic (mtime, key) order "
                               "until the rest fits")
    store_gc.add_argument("--dry-run", action="store_true",
                          help="list the eviction victims without deleting them")
    store_gc.set_defaults(handler=_cmd_store_gc, failure="store gc failed")

    trace_parser = subparsers.add_parser(
        "trace", help="telemetry timeline tools")
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    trace_export = trace_sub.add_parser(
        "export",
        help="convert telemetry JSONL into Chrome trace-event / Perfetto JSON")
    trace_export.add_argument("input",
                              help="telemetry JSONL file (from --telemetry-out "
                                   "or --telemetry-dir)")
    trace_export.add_argument("--output", required=True,
                              help="destination timeline JSON (open in "
                                   "chrome://tracing or ui.perfetto.dev)")
    trace_export.set_defaults(handler=_cmd_trace_export, failure="trace export failed")

    campaign = subparsers.add_parser(
        "campaign",
        help="resumable, store-backed campaigns (scenario × transport × sweep × replication)")
    campaign.set_defaults(failure="campaign command failed")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--store", required=True,
                         help="run-store directory (created on first use)")
        sub.add_argument("--spec", default=None,
                         help="campaign spec JSON file (overrides the grid flags)")
        sub.add_argument("--name", default="cli",
                         help="campaign name when no --spec file is given")
        sub.add_argument("--scenarios", nargs="+", default=list(DEFAULT_MATRIX_SCENARIOS),
                         help="scenario names (default: baseline core-link-failure)")
        sub.add_argument("--transports", nargs="+",
                         default=list(DEFAULT_MATRIX_PROTOCOLS), choices=ALL_PROTOCOLS)
        sub.add_argument("--replications", type=int, default=1,
                         help="seeded replications per cell (default 1)")
        sub.add_argument("--scale", choices=SCENARIO_SCALES, default="tiny",
                         help="experiment scale (tiny/quick/large/paper)")
        sub.add_argument("--seed", type=int, default=20150817, help="campaign root seed")
        _add_config_flags(sub, *_SWEEP_AXES, plural=True)
        sub.add_argument("--baseline-protocol", default="tcp", choices=ALL_PROTOCOLS,
                         help="protocol the report's delta table compares against")

    camp_run = campaign_sub.add_parser(
        "run", help="run the campaign with cache-aware dispatch (hits skip simulation)")
    _add_campaign_arguments(camp_run)
    _add_workers_argument(camp_run, "process-pool size for cache misses")
    camp_run.add_argument("--report", default=None,
                          help="also write the markdown report to this file")
    camp_run.add_argument("--export-dir", default=None,
                          help="directory for the per-cell CSV export (omit to skip)")
    camp_run.add_argument("--progress-events", default=None, metavar="FILE",
                          help="write structured JSONL progress events "
                               "(campaign_start, cell_hit, cell_start, "
                               "cell_finish, campaign_finish) to this file; "
                               "operator telemetry in completion order, never "
                               "a byte-compare surface")
    camp_run.set_defaults(handler=_cmd_campaign_run)

    camp_status = campaign_sub.add_parser(
        "status", help="show which cells are persisted, without running anything")
    _add_campaign_arguments(camp_status)
    camp_status.add_argument("--summary", action="store_true",
                             help="aggregate to one row per (scenario, protocol) "
                                  "with stored/missing counts instead of per cell")
    camp_status.set_defaults(handler=_cmd_campaign_status)

    camp_report = campaign_sub.add_parser(
        "report", help="regenerate the report from stored artifacts (zero simulation)")
    _add_campaign_arguments(camp_report)
    camp_report.add_argument("--output", default=None,
                             help="write the markdown report here (default: stdout)")
    camp_report.set_defaults(handler=_cmd_campaign_report)

    camp_gc = campaign_sub.add_parser(
        "gc", help="drop this campaign's stored artifacts that the spec no longer "
                   "declares (other campaigns in the store are untouched)")
    _add_campaign_arguments(camp_gc)
    camp_gc.add_argument("--dry-run", action="store_true",
                         help="list removable artifacts without deleting them")
    camp_gc.set_defaults(handler=_cmd_campaign_gc)

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
