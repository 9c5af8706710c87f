"""The performance ledger: every workload, untraced then traced, one report.

    python -m benchmarks.ledger --seed S --out FILE

Each workload runs in fresh child processes through :func:`run.measure` —
first untraced (end-to-end metrics, the workload's own pass count), then
traced (per-layer metrics).  The report prints every metric by name with its
unit, the checks' failure share, each workload's ``sim_digest`` (and whether
it differs from the committed one for that seed), and the ranked layer budget.
It exits non-zero when an op failed or when ``fluid_fct_error_pct`` is more
than 1.0 point above the committed report for the seed.  ``--check-stability``
runs the whole set twice and also exits non-zero unless the two agree:
end-to-end metrics within their own bounds, every exact count and digest
equal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

# run.py puts src/ on sys.path when imported, so it comes first.
from benchmarks.ledger.run import HERE, measure  # isort: skip

from repro.metrics.export import dumps_deterministic

from benchmarks.ledger.layers import benchmark
from benchmarks.ledger.stats import summarise
from benchmarks.ledger.workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS

#: Committed reports: the first numbers, and what ``digest_changed`` and the
#: accuracy bound compare with.
BASELINES = (HERE / "baseline.json", HERE / "baseline_holdout.json")

#: ``fluid_fct_error_pct`` may rise this many points (absolute) above the
#: committed report for the same seed before it is a regression.
FCT_ERROR_BOUND_POINTS = 1.0

#: Units whose metrics are simulated statistics or exact counts: they repeat
#: exactly for a fixed seed, so two runs of the same code must agree on them.
EXACT_UNITS = frozenset({"count", "ms", "Mbps", "%"})

#: End-to-end metrics the ledger prints beside the gated ones.  ``BENCHMARK.json``
#: cannot list them: a gated metric must be non-zero on every workload and
#: steady across seeds.
_EXTRA_END_TO_END = [
    ("flows_per_s", "1/s"),
    ("failure_share", "ratio"),
    ("fluid_fct_error_pct", "%"),
]


def committed(seed: int) -> Optional[Dict[str, Any]]:
    """The committed ledger document for ``seed``, if there is one."""
    for path in BASELINES:
        if path.exists():
            document = json.loads(path.read_text())
            if document.get("seed") == seed:
                return document
    return None


def run_set(
    seed: int, baseline: Optional[Dict[str, Any]], trace_out: Optional[str]
) -> Dict[str, Any]:
    """Every workload untraced then traced; the ledger document for ``--out``.

    ``baseline`` is the committed document for ``seed``: ``digest_changed``
    compares with it.
    """
    seconds = benchmark()["run_seconds"]
    workloads: Dict[str, Any] = {}
    for name, workload in WORKLOADS.items():
        print(f"[ledger] {name}: untraced run ...", file=sys.stderr, flush=True)
        untraced, detail = measure(name, seed, seconds, 0, min_passes=workload.passes)
        print(f"[ledger] {name}: traced run ...", file=sys.stderr, flush=True)
        traced, traced_detail = measure(
            name, seed, seconds, 1, trace_out=trace_out and f"{trace_out}.{name}.json"
        )
        end_to_end = {key: entry["value"] for key, entry in untraced["metrics"].items()}
        per_layer = {key: entry["value"] for key, entry in traced["metrics"].items()}

        # Cross-run checks: an instrument may not change what the pass computes.
        cross_checks = []
        if traced_detail["digest"] != detail["digest"]:
            cross_checks.append("traced digest==untraced digest")
        if per_layer["sim.events"] != detail["events"]:
            cross_checks.append("traced events_processed==untraced events_processed")
        attempted = untraced["attempted"] + traced["attempted"] + 2
        failed = untraced["failed"] + traced["failed"] + len(cross_checks)

        end_to_end["failure_share"] = failed / attempted
        end_to_end["flows_per_s"] = detail["flows"] / end_to_end["wall_s"]
        end_to_end.update(detail["setup_facts"])
        committed_digest = baseline and baseline["workloads"][name]["sim_digest"]
        workloads[name] = {
            "why": workload.why,
            "passes": detail["passes"],
            "spreads": {
                "setup_s": summarise(detail["setups"]),
                "wall_s": detail["wall_s"],
                "cpu_s": detail["cpu_s"],
            },
            "attempted": attempted,
            "failed": failed,
            "failed_ops": detail["failed_ops"] + traced_detail["failed_ops"] + cross_checks,
            "sim_digest": detail["digest"],
            "digest_changed": bool(committed_digest) and committed_digest != detail["digest"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "layer_budget": traced_detail["budget"],
        }
    # The same for every run of the set; read them off the last one.
    environment = {
        key: detail[key]
        for key in ("nproc", "workers", "python", "seconds", "sim.event_chain_us_per_event")
    }
    return {"seed": seed, "environment": environment, "workloads": workloads}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def print_report(document: Dict[str, Any]) -> None:
    environment = document["environment"]
    print(f"seed {document['seed']}  nproc {environment['nproc']}  workers "
          f"{environment['workers']}  python {environment['python']}  "
          f"sim.event_chain_us_per_event {environment['sim.event_chain_us_per_event']:.4f} us")
    names = list(document["workloads"])
    gated = [(metric["name"], metric["unit"]) for metric in benchmark()["end_to_end"]]
    for name in names:
        entry = document["workloads"][name]
        print(f"\n== {name} — {entry['why']}")
        print(f"   passes {entry['passes']}  ops {entry['attempted']} failed "
              f"{entry['failed']} {entry['failed_ops']}")
        print(f"   sim_digest {entry['sim_digest']}  digest_changed "
              f"{str(entry['digest_changed']).lower()}")
        for metric, unit in gated + _EXTRA_END_TO_END:
            if metric not in entry["end_to_end"]:
                continue
            line = f"   {metric:<24}{entry['end_to_end'][metric]:>14.6g} {unit:<6}"
            spread = entry["spreads"].get(metric)
            if spread:
                line += (f" IQR {spread['iqr']:.4g} min {spread['min']:.4g} "
                         f"max {spread['max']:.4g} n {spread['n']}")
            print(line)
        print("   layer budget (cProfile self time, share of all profiled self time):")
        for row in entry["layer_budget"]:
            print(f"     {row['bucket']:<18}{row['self_s']:>10.4g} s {row['share']:>7.1%}"
                  f"  calls {row['calls']}")

    print("\n== per-layer metrics")
    print(f"{'metric':<36}{'unit':<7}" + "".join(f"{name:>18}" for name in names))
    for metric in benchmark()["per_layer"]:
        values = "".join(
            f"{document['workloads'][name]['per_layer'][metric['name']]:>18.6g}"
            for name in names
        )
        print(f"{metric['name']:<36}{metric['unit']:<7}{values}")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def regressions(document: Dict[str, Any], baseline: Optional[Dict[str, Any]]) -> List[str]:
    """Failed ops, and the accuracy metric against the committed report."""
    offending = [
        f"{name} failed ops: {entry['failed_ops']}"
        for name, entry in document["workloads"].items()
        if entry["failed"]
    ]
    if baseline is not None:
        metric = "fluid_fct_error_pct"
        now = document["workloads"]["fluid_loadsweep"]["end_to_end"][metric]
        then = baseline["workloads"]["fluid_loadsweep"]["end_to_end"][metric]
        if now > then + FCT_ERROR_BOUND_POINTS:
            offending.append(
                f"fluid_loadsweep {metric}: {now:.4g} vs committed {then:.4g} "
                f"(bound {FCT_ERROR_BOUND_POINTS} point)"
            )
    return offending


def disagreements(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """The (workload, metric) pairs on which two sets of the same code disagree."""
    offending: List[str] = []
    for name in first["workloads"]:
        one, two = first["workloads"][name], second["workloads"][name]
        for metric in benchmark()["end_to_end"]:
            a, b = one["end_to_end"][metric["name"]], two["end_to_end"][metric["name"]]
            if abs(a - b) > metric["bound"] * min(a, b):
                offending.append(
                    f"{name} {metric['name']}: {a:.6g} vs {b:.6g} (bound {metric['bound']:.0%})"
                )
        for metric in benchmark()["per_layer"]:
            a, b = one["per_layer"][metric["name"]], two["per_layer"][metric["name"]]
            if metric["unit"] in EXACT_UNITS and a != b:
                offending.append(f"{name} {metric['name']}: {a!r} vs {b!r} (exact)")
        if one["sim_digest"] != two["sim_digest"]:
            offending.append(f"{name} sim_digest: {one['sim_digest']} vs {two['sim_digest']}")
    return offending


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HOLDOUT_SEED} is the "
                             "hold-out seed, for verifying a claim only)")
    parser.add_argument("--out", default=None, help="write the ledger document here (JSON)")
    parser.add_argument("--trace-out", default=None, metavar="PREFIX",
                        help="write each traced run's spans to PREFIX.<workload>.json "
                             "(Chrome trace JSON)")
    parser.add_argument("--check-stability", action="store_true",
                        help="run the set twice; exit 1 unless the two sets agree")
    args = parser.parse_args(argv)

    baseline = committed(args.seed)
    document = run_set(args.seed, baseline, args.trace_out)
    print_report(document)
    offending = regressions(document, baseline)
    if args.check_stability:
        second = run_set(args.seed, baseline, None)
        offending += regressions(second, baseline) + disagreements(document, second)
        print("\n== stability: two sets of the same code compared")
    print("\n== verdict: " + ("ok" if not offending else "FAILED"))
    for line in offending:
        print(f"   {line}")
    if args.out:
        Path(args.out).write_text(dumps_deterministic(document))
        print(f"\nwrote {args.out}")
    return 1 if offending else 0


if __name__ == "__main__":
    sys.exit(main())
