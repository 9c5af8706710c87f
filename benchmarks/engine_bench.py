"""Engine micro-benchmark driver: measures µs/event and emits BENCH_engine.json.

This is the perf-trajectory artifact for the simulation core.  It measures
three deterministic workloads:

* ``event_chain`` — a chain of one-shot events; the pure heap path and the
  machine-speed proxy used to normalise cross-machine comparisons.
* ``timer_churn_heap`` / ``timer_churn_wheel`` — the RTO-heavy incast
  pattern (hundreds of concurrent flows, each ACK re-arming a 200 ms
  retransmission timer that almost never fires), expressed once with naive
  ``schedule``/``cancel`` events and once with the reusable
  :meth:`Simulator.timer` handles the transport stack uses (the key keeps
  its historical name so the trajectory stays comparable).  Both run on the
  engine's one heap and both are tracked; neither is a bar for the other.
* ``rto_incast`` — an end-to-end MMPTCP incast burst over shallow queues
  (the golden-trace scenario), exercising the whole stack on top of the
  timer subsystem.

Usage::

    python benchmarks/engine_bench.py --output BENCH_engine.json
    python benchmarks/engine_bench.py --check BENCH_engine.json [--tolerance 0.20]

``--check`` re-measures and fails (exit 1) if any workload's *normalised*
µs/event (workload divided by the same run's ``event_chain``) regressed
more than ``tolerance`` relative to the committed baseline.
Normalising by ``event_chain`` makes the gate about relative engine cost,
not about how fast the CI machine happens to be.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict

if __package__ in (None, ""):  # running as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.engine import Simulator

#: The conventional minimum RTO the paper's experiments keep (and therefore
#: the deadline almost every armed timer carries).
RTO_S = 0.2

#: Concurrent flows in the timer-churn workloads — incast-scale fan-in.
CHURN_FLOWS = 512


# ---------------------------------------------------------------------------
# Workloads (each returns a run callable; all are deterministic)
# ---------------------------------------------------------------------------


def run_event_chain(events: int = 200_000) -> int:
    """Chained one-shot events: the pure heap path."""
    simulator = Simulator()
    remaining = [events]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            simulator.schedule(1e-6, tick)

    simulator.schedule(0.0, tick)
    simulator.run()
    return simulator.events_processed


def run_timer_churn(use_timers: bool, flows: int = CHURN_FLOWS, ticks: int = 200_000) -> int:
    """The RTO pattern: every 'ACK' re-arms one flow's 200 ms timer.

    A driver event fires every 5 µs (the ACK clock) and re-arms the next
    flow's retransmission timer round-robin, so each timer is re-armed long
    before it can fire — with naive events, cancel-dominated churn that
    fills the heap with dead entries; with timers, deferred re-arms that
    file nothing.
    """
    simulator = Simulator()

    def noop() -> None:
        pass

    if use_timers:
        handles = [simulator.timer(noop) for _ in range(flows)]

        def rearm(index: int) -> None:
            handles[index].arm(RTO_S)

    else:
        events = [None] * flows

        def rearm(index: int) -> None:
            simulator.cancel(events[index])
            events[index] = simulator.schedule(RTO_S, noop)

    remaining = [ticks]

    def tick() -> None:
        count = remaining[0]
        if count:
            remaining[0] = count - 1
            rearm(count % flows)
            simulator.schedule(5e-6, tick)

    simulator.schedule(0.0, tick)
    simulator.run()
    return simulator.events_processed


def run_rto_incast() -> int:
    """End-to-end MMPTCP incast over shallow queues (golden-trace scenario)."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.incast_study import build_incast_workload_for
    from repro.experiments.runner import run_experiment
    from repro.traffic.flowspec import PROTOCOL_MMPTCP

    config = ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=2,
        protocol=PROTOCOL_MMPTCP,
        num_subflows=4,
        arrival_window_s=0.05,
        drain_time_s=0.8,
        initial_cwnd_segments=2,
        queue_capacity_packets=16,
        seed=42,
    )
    workload = build_incast_workload_for(config, 8, 50_000, config.protocol)
    result = run_experiment(config, workload=workload)
    return result.events_processed


WORKLOADS: Dict[str, Callable[[], int]] = {
    "event_chain": run_event_chain,
    "timer_churn_heap": lambda: run_timer_churn(use_timers=False),
    "timer_churn_wheel": lambda: run_timer_churn(use_timers=True),
    "rto_incast": run_rto_incast,
}


# ---------------------------------------------------------------------------
# Measurement and artifact
# ---------------------------------------------------------------------------


def measure(repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` µs/event for every workload."""
    results: Dict[str, Dict[str, float]] = {}
    for name, workload in WORKLOADS.items():
        best_us = float("inf")
        events = 0
        for _ in range(repeats):
            start = time.perf_counter()
            events = workload()
            elapsed = time.perf_counter() - start
            best_us = min(best_us, elapsed / events * 1e6)
        results[name] = {"events": events, "us_per_event": round(best_us, 4)}
    return results


def build_report(repeats: int = 3) -> Dict[str, object]:
    workloads = measure(repeats)
    chain_us = workloads["event_chain"]["us_per_event"]
    return {
        "schema": 1,
        "generated_by": "benchmarks/engine_bench.py",
        "churn_flows": CHURN_FLOWS,
        "workloads": workloads,
        # µs/event divided by this run's event_chain: a machine-independent
        # view of relative engine cost, used by the CI regression gate.
        "normalised": {
            name: round(data["us_per_event"] / chain_us, 4)
            for name, data in workloads.items()
        },
    }


def check(report: Dict[str, object], baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, base_norm in baseline["normalised"].items():
        current = report["normalised"].get(name)
        if current is None:
            failures.append(f"workload {name!r} missing from the current run")
            continue
        if current > base_norm * (1.0 + tolerance):
            failures.append(
                f"{name}: normalised µs/event {current:.3f} regressed more than "
                f"{tolerance:.0%} over baseline {base_norm:.3f}"
            )
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print(f"engine benchmarks within {tolerance:.0%} of baseline")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None,
                        help="write the BENCH_engine.json artifact here")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed baseline and exit "
                             "non-zero on regression")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed normalised µs/event regression (default 0.20)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    args = parser.parse_args(argv)

    report = build_report(repeats=args.repeats)
    # sort_keys + trailing newline: artifact bytes depend only on the
    # measured values, never on dict construction order.
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output is not None:
        # Merge: foreign sections of an existing artifact (e.g. the
        # packet_path section written by packet_bench.py) are preserved.
        merged: Dict[str, object] = {}
        if args.output.exists():
            merged = {
                key: value
                for key, value in json.loads(args.output.read_text()).items()
                if key not in report
            }
        merged.update(report)
        args.output.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.check is not None:
        return check(report, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
