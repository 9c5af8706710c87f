"""One ledger run: one workload, traced or not, one JSON result line.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

:func:`measure` is the load generator.  It never runs ``repro`` work itself:
it spawns a fresh child per set-up (``--child``), times spawn → ready as
``setup_s``, lets the first child run timed passes back to back for
``--seconds`` (closed loop, one client; at least one pass), and turns what the
child reports into the metrics ``BENCHMARK.json`` names.  With ``--trace 1``
the child makes the traced run of :mod:`benchmarks.ledger.traced` instead and
the result carries the per-layer metrics.  ``python -m benchmarks.ledger``
calls :func:`measure` directly; this file's ``main`` is the benchmark driver's
entry and prints the result as the last line of its output.

Everything is written under ``benchmarks/ledger/.work/`` and removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the ledger measures a repro checkout")
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.metrics.export import dumps_deterministic  # noqa: E402

from benchmarks.ledger.layers import benchmark, render  # noqa: E402
from benchmarks.ledger.stats import summarise  # noqa: E402
from benchmarks.ledger.workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKERS,
    WORKLOADS,
    event_chain_us_per_event,
)

#: ``setup_s`` is the median over at least MIN_SETUPS set-ups; cheap set-ups
#: repeat (up to MAX_SETUPS) until they add up to SETUP_BUDGET_S, so that a
#: 0.4 s set-up is not judged on three samples.  The measuring child comes
#: first and the set-up-only children after it: this sandbox starts a process
#: 15-25 % slower after idling than after load (0.41-0.45 s against
#: 0.32-0.37 s for the same set-up), so the samples are taken in the state the
#: timed passes leave behind, whatever ran before the benchmark.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 4.0

_READY = "ledger-ready"
_RESULT = "ledger-result "


# ---------------------------------------------------------------------------
# Child: set up, then measure
# ---------------------------------------------------------------------------


def _one_line(payload: Any) -> str:
    """``payload`` as one line of policy JSON (sorted keys, no NaN)."""
    return dumps_deterministic(payload, indent=None).rstrip("\n")


def _op_summary(ops: Sequence[Tuple[str, bool]]) -> Dict[str, Any]:
    failed = [label for label, ok in ops if not ok]
    return {"attempted": len(ops), "failed": len(failed), "failed_ops": failed[:20]}


def child_main(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)
    print(_READY, flush=True)
    if args.setup_only:
        return 0

    # The machine-speed calibration, outside every timed pass.
    chain_us = event_chain_us_per_event()
    if args.trace:
        # Imported here: an untraced child must not pay for (or hold in
        # memory) the CLI and profiler modules the instruments pull in.
        from benchmarks.ledger.traced import TRACERS
        from benchmarks.ledger.tracing import SpanRecorder

        spans = SpanRecorder()
        with spans.span(f"traced.{workload.name}", seed=args.seed):
            measured, ops, extra = TRACERS[workload.name](workload, spans, workdir)
        if args.trace_out:
            Path(args.trace_out).write_text(dumps_deterministic(spans.chrome_trace(workload.name)))
        measured["sim.event_chain_us_per_event"] = chain_us
        measured["sim.dispatch_s"] = measured["sim.events"] * chain_us / 1e6
        payload = {"measured": measured, **extra, **_op_summary(ops)}
    else:
        passes = []
        started = time.perf_counter()
        while True:
            one = workload.run_pass(len(passes))
            one.detail.clear()
            passes.append(one)
            typical = statistics.median(one.wall_s for one in passes)
            if (
                len(passes) >= args.min_passes
                and time.perf_counter() - started + typical > args.seconds
            ):
                break
        ops = [op for one in passes for op in one.ops]
        digests = [one.digest for one in passes if one.digest is not None]
        for index, digest in enumerate(digests[1:], start=1):
            ops.append((f"pass{index} digest==pass0 digest", digest == digests[0]))
        ops.extend(workload.verify(passes))
        payload = {
            "passes": [
                {
                    "wall_s": one.wall_s, "cpu_s": one.cpu_s, "rss_mb": one.rss_mb,
                    "cells": one.cells, "flows": one.flows, "events": one.events,
                }
                for one in passes
            ],
            "digest": digests[0] if digests else None,
            **_op_summary(ops),
        }
    payload["event_chain_us"] = chain_us
    payload["setup_facts"] = workload.setup_facts
    print(_RESULT + _one_line(payload), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Load generator: spawn, time set-up, report
# ---------------------------------------------------------------------------


def _spawn(child_argv: Sequence[str], setup_only: bool) -> Tuple[float, Optional[Dict]]:
    """Run one child; (spawn → ready seconds, its result payload if it measured)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", *child_argv]
    if setup_only:
        argv.append("--setup-only")
    setup_s, payload = None, None
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        for line in child.stdout:
            if line.startswith(_READY):
                setup_s = time.perf_counter() - started
            elif line.startswith(_RESULT):
                payload = json.loads(line[len(_RESULT):])
    if child.returncode != 0 or setup_s is None or (payload is None and not setup_only):
        raise RuntimeError(f"ledger child {' '.join(child_argv)} failed (exit {child.returncode})")
    return setup_s, payload


def end_to_end(setups: Sequence[float], passes: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The end-to-end metrics of one run: medians over its set-ups and passes.

    ``peak_rss_mb`` is the first pass's high-water mark, so that it does not
    depend on how many passes the machine's speed let the run make.
    """
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(one["wall_s"] for one in passes),
        "cpu_s": statistics.median(one["cpu_s"] for one in passes),
        "cells_per_s": statistics.median(one["cells"] / one["wall_s"] for one in passes),
        "peak_rss_mb": passes[0]["rss_mb"],
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    min_passes: int = 1,
    trace_out: Optional[str] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run of ``workload``: (the driver's result object, everything else).

    The result has the benchmark contract's four keys.  The detail carries
    what a reader or the ledger command wants beyond them: environment, pass
    count and spreads, set-up samples, ``sim_digest``, failed ops and, for a
    traced run, the ranked layer budget.
    """
    work_root = HERE / ".work" / f"{workload}-{os.getpid()}"
    setups: List[float] = []

    def spawn(setup_only: bool) -> Optional[Dict]:
        child_argv = [
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--min-passes", str(min_passes),
            "--workdir", str(work_root / str(len(setups))),
        ]
        if trace_out:
            child_argv += ["--trace-out", trace_out]
        setup_s, payload = _spawn(child_argv, setup_only)
        setups.append(setup_s)
        return payload

    try:
        payload = spawn(setup_only=False)
        while not trace and (
            len(setups) < MIN_SETUPS
            or (len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S)
        ):
            spawn(setup_only=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    detail: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "python": platform.python_version(),
        "sim.event_chain_us_per_event": payload["event_chain_us"],
        "digest": payload["digest"],
        "failed_ops": payload["failed_ops"],
        "setup_facts": payload["setup_facts"],
    }
    if trace:
        metrics = render(benchmark()["per_layer"], payload["measured"])
        detail["budget"] = payload["budget"]
    else:
        passes = payload["passes"]
        metrics = render(benchmark()["end_to_end"], end_to_end(setups, passes))
        detail.update(
            passes=len(passes),
            setups=setups,
            flows=passes[0]["flows"],
            events=passes[0]["events"],
            cells=passes[0]["cells"],
            wall_s=summarise([one["wall_s"] for one in passes]),
            cpu_s=summarise([one["cpu_s"] for one in passes]),
        )
    result = {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }
    return result, detail


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(benchmark()["run_seconds"]),
                        help="how long the untraced run keeps starting passes "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="with --trace 1: write the spans here as Chrome trace JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--min-passes", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        return child_main(args)
    result, detail = measure(
        args.workload, args.seed, args.seconds, args.trace, trace_out=args.trace_out
    )
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in detail.items():
        print(f"# {name}: {_one_line(value)}")
    # The benchmark driver reads the last line of standard output.
    print(_one_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
