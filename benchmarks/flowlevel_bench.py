"""Flow-level tier benchmark: µs/flow vs the packet engine, and 100× scale.

The fidelity-tier counterpart of ``packet_bench.py``.  Three measurements
make up the ``flow_level`` section of ``BENCH_engine.json``:

* ``matched`` — the golden tiny MMPTCP scenario run end-to-end at both
  fidelities.  Identical workload, identical seed; the packet engine pays
  tens of thousands of per-packet events where the fluid engine pays a
  handful of rate recomputations, so the headline ``speedup_us_per_flow``
  (packet µs/flow over fluid µs/flow) is the cost of packet fidelity.
* ``loadsweep_100x`` — a two-point arrival-rate sweep at ~100× the tiny
  workload's flow count, flow fidelity only.  The packet engine cannot
  finish this in benchmark time; the fluid tier clears it in a few events
  per flow.
* ``incast_100x`` — staggered rounds of all-to-one fan-in (every host takes
  a turn as the receiver) totalling ~100× the tiny flow count: the
  synchronized-arrival coalescing path under sustained contention.

Usage::

    python benchmarks/flowlevel_bench.py --output BENCH_engine.json
    python benchmarks/flowlevel_bench.py --check BENCH_engine.json [--tolerance 0.25]

``--output`` *merges* a ``flow_level`` section into the artifact (the
sections written by ``engine_bench.py`` / ``packet_bench.py`` are
preserved).  ``--check`` re-measures and fails (exit 1) if the fluid tier's
*normalised* µs/flow (divided by the same run's ``event_chain`` µs/event,
so machine speed cancels out) regressed more than ``tolerance``, if the
matched-scale speedup fell below ``--min-speedup`` (default 10×), or if
either large run's flow count fell below ``--min-scale`` (default 100×) the
matched workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

if __package__ in (None, ""):  # running as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from engine_bench import run_event_chain

from repro.experiments import run_load_sweep
from repro.experiments.config import FIDELITY_FLOW, FIDELITY_PACKET
from repro.experiments.runner import build_topology, run_experiment
from repro.scenarios import tiny_config
from repro.sim.engine import Simulator
from repro.traffic.flowspec import PROTOCOL_MMPTCP, FlowSpec
from repro.traffic.workloads import Workload

#: Load factors for the large sweep — enough to show the load axis without
#: dominating benchmark wall time.
SWEEP_FACTORS = (0.5, 1.0)

#: Fan-in rounds for the large incast (every host receives once per round);
#: 6 rounds x 16 receivers x 15 senders = 1440 flows, 120x the matched run.
INCAST_ROUNDS = 6
INCAST_RESPONSE_BYTES = 50_000

#: The matched fluid run finishes in single-digit milliseconds, far below
#: stable timer resolution — time a batch of back-to-back runs instead.
MATCHED_FLUID_BATCH = 20


def _matched_config(fidelity: str):
    return tiny_config(protocol=PROTOCOL_MMPTCP).with_updates(fidelity=fidelity)


def _scaled_config(flow_target: int):
    """The tiny fabric driven at ``flow_target`` short flows, flow fidelity."""
    return tiny_config(protocol=PROTOCOL_MMPTCP).with_updates(
        fidelity=FIDELITY_FLOW,
        max_short_flows=flow_target,
        short_flow_rate_per_sender=1200.0,
        arrival_window_s=1.2,
    )


def _host_names() -> List[str]:
    topology = build_topology(_matched_config(FIDELITY_PACKET), Simulator())
    return sorted(host.name for host in topology.hosts)


def _incast_workload(hosts: List[str]) -> Workload:
    """Staggered all-to-one rounds: every host takes a turn as receiver."""
    flows: List[FlowSpec] = []
    for round_index in range(INCAST_ROUNDS):
        start = 0.01 + 0.05 * round_index
        for receiver_index, receiver in enumerate(hosts):
            for sender in hosts:
                if sender == receiver:
                    continue
                flows.append(
                    FlowSpec(
                        flow_id=len(flows),
                        source=sender,
                        destination=receiver,
                        size_bytes=INCAST_RESPONSE_BYTES,
                        start_time=start + 1e-4 * receiver_index,
                        protocol=PROTOCOL_MMPTCP,
                        num_subflows=4,
                    )
                )
    return Workload(flows=flows)


def _timed_run(runner, repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time for ``runner()``, plus its last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_stats(elapsed_s: float, flows: int, events: int) -> Dict[str, float]:
    return {
        "flows": flows,
        "events": events,
        "events_per_flow": round(events / flows, 2),
        "us_per_flow": round(elapsed_s / flows * 1e6, 2),
    }


def build_report(repeats: int = 3) -> Dict[str, object]:
    """The ``flow_level`` section of BENCH_engine.json."""
    # Machine-speed proxy shared with engine_bench/packet_bench.
    chain_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        events = run_event_chain()
        chain_best = min(chain_best, (time.perf_counter() - start) / events * 1e6)

    packet_s, packet = _timed_run(
        lambda: run_experiment(_matched_config(FIDELITY_PACKET)), repeats
    )
    def run_fluid_batch():
        for _ in range(MATCHED_FLUID_BATCH):
            result = run_experiment(_matched_config(FIDELITY_FLOW))
        return result

    fluid_batch_s, fluid = _timed_run(run_fluid_batch, repeats)
    fluid_s = fluid_batch_s / MATCHED_FLUID_BATCH
    if fluid.workload_size != packet.workload_size:
        raise RuntimeError(
            "matched runs diverged: "
            f"{fluid.workload_size} fluid vs {packet.workload_size} packet flows"
        )

    matched = {
        "packet": _run_stats(packet_s, packet.workload_size, packet.events_processed),
        "flow": _run_stats(fluid_s, fluid.workload_size, fluid.events_processed),
    }
    speedup = matched["packet"]["us_per_flow"] / matched["flow"]["us_per_flow"]

    flow_target = packet.workload_size * 100

    sweep_s, points = _timed_run(
        lambda: run_load_sweep(
            _scaled_config(flow_target),
            protocols=(PROTOCOL_MMPTCP,),
            load_factors=SWEEP_FACTORS,
        ),
        repeats,
    )
    sweep_flows = sum(point.result.workload_size for point in points)
    sweep_events = sum(point.result.events_processed for point in points)
    loadsweep = _run_stats(sweep_s, sweep_flows, sweep_events)
    loadsweep["completion_rate"] = round(
        min(point.completion_rate for point in points), 4
    )

    hosts = _host_names()
    incast_config = _matched_config(FIDELITY_FLOW)
    incast_workload = _incast_workload(hosts)
    incast_s, incast = _timed_run(
        lambda: run_experiment(incast_config, workload=incast_workload), repeats
    )
    incast_stats = _run_stats(
        incast_s, incast.workload_size, incast.events_processed
    )
    incast_stats["completion_rate"] = round(
        incast.metrics.short_flow_completion_rate(), 4
    )

    return {
        "generated_by": "benchmarks/flowlevel_bench.py",
        "event_chain_us_per_event": round(chain_best, 4),
        "matched": matched,
        "speedup_us_per_flow": round(speedup, 1),
        "loadsweep_100x": loadsweep,
        "incast_100x": incast_stats,
        # Fluid-tier µs/flow divided by this run's event_chain µs/event: the
        # machine-independent view the CI regression gate compares.
        "normalised": {
            "flow_matched": round(matched["flow"]["us_per_flow"] / chain_best, 4),
            "loadsweep_100x": round(loadsweep["us_per_flow"] / chain_best, 4),
            "incast_100x": round(incast_stats["us_per_flow"] / chain_best, 4),
        },
    }


def merge_output(report: Dict[str, object], path: Path) -> None:
    """Write ``report`` under the ``flow_level`` key, preserving other sections."""
    artifact: Dict[str, object] = {}
    if path.exists():
        artifact = json.loads(path.read_text())
    artifact["flow_level"] = report
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")


def check(report: Dict[str, object], baseline_path: Path, tolerance: float,
          min_speedup: float, min_scale: float) -> int:
    baseline = json.loads(baseline_path.read_text()).get("flow_level")
    failures = []
    if baseline is None:
        failures.append(f"{baseline_path} has no flow_level section")
    else:
        for name, base_norm in baseline["normalised"].items():
            current = report["normalised"].get(name)
            if current is None:
                failures.append(f"workload {name!r} missing from the current run")
                continue
            if current > base_norm * (1.0 + tolerance):
                failures.append(
                    f"{name}: normalised µs/flow {current:.3f} regressed more "
                    f"than {tolerance:.0%} over baseline {base_norm:.3f}"
                )
    speedup = float(report["speedup_us_per_flow"])
    if speedup < min_speedup:
        failures.append(
            f"matched-scale speedup {speedup:.1f}x fell below the required "
            f"{min_speedup:.0f}x"
        )
    matched_flows = report["matched"]["flow"]["flows"]
    for name in ("loadsweep_100x", "incast_100x"):
        section = report[name]
        if section["flows"] < min_scale * matched_flows:
            failures.append(
                f"{name}: {section['flows']} flows is below {min_scale:.0f}x "
                f"the matched workload ({matched_flows} flows)"
            )
        if section["completion_rate"] < 0.95:
            failures.append(
                f"{name}: completion rate {section['completion_rate']:.3f} "
                "fell below 0.95"
            )
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"flow-level benchmarks within {tolerance:.0%} of baseline; "
            f"speedup {speedup:.1f}x, "
            f"loadsweep {report['loadsweep_100x']['flows']} flows at "
            f"{report['loadsweep_100x']['events_per_flow']:.1f} events/flow, "
            f"incast {report['incast_100x']['flows']} flows at "
            f"{report['incast_100x']['events_per_flow']:.1f} events/flow"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None,
                        help="merge the flow_level section into this JSON artifact")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed baseline and exit "
                             "non-zero on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalised µs/flow regression (default 0.25)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="required matched-scale packet/fluid µs-per-flow "
                             "ratio (default 10)")
    parser.add_argument("--min-scale", type=float, default=100.0,
                        help="required large-run flow count as a multiple of "
                             "the matched workload (default 100)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    args = parser.parse_args(argv)

    report = build_report(repeats=args.repeats)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output is not None:
        merge_output(report, args.output)
        print(f"merged flow_level into {args.output}", file=sys.stderr)
    if args.check is not None:
        return check(report, args.check, args.tolerance, args.min_speedup,
                     args.min_scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
