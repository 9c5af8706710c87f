"""The four ledger workloads: inputs from a seed, one timed pass, output checks.

Each workload is closed-loop with one client: a pass starts when the previous
one ends.  Inputs (configs, the campaign spec file) are generated from the
seed here; ``repro`` sees only those inputs.  Workload scale is fixed — a
tight time budget cuts passes, never scale.

Why each workload exists (the README has the full interaction map):

* ``packet_protocols`` — the paper's own TCP / MPTCP / MMPTCP comparison;
  millions of cheap events through ``sim`` dispatch, ``net`` and
  ``transport``/``core``.  ``flowlevel``, ``store`` and the pool do nothing.
* ``fluid_loadsweep`` — ROADMAP's measured hot spot; a few thousand heavy
  events through ``flowlevel`` and ``sim.fluid``.  The packet data plane does
  nothing, so a dispatch gain must not show here and a solver gain must not
  show on ``packet_protocols``.
* ``campaign_cold`` — the harness a user drives: CLI, campaign runner, process
  pool IPC, scenarios/faults, store *writes*, report.  Many short cells make
  pool, pickle and store cost visible.
* ``campaign_warm`` — the same layers the other way: store *reads*, integrity
  verification, report rendering and CLI start-up, with zero simulation.
"""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaigns import (
    CampaignSpec,
    campaign_rows,
    load_campaign_cells,
    run_campaign,
)
from repro.experiments import load_sweep_rows, run_experiment, run_load_sweep
from repro.experiments.config import scaled_config
from repro.metrics.export import dumps_deterministic
from repro.scenarios.spec import tiny_config
from repro.sim.engine import Simulator
from repro.store.runstore import RunStore

from benchmarks.ledger.stats import sim_digest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

DEFAULT_SEED = 20150817
#: For verifying a claim on inputs it was not developed against; never tune on it.
HOLDOUT_SEED = 20150818

#: ``--workers`` never exceeds min(2, nproc).
WORKERS = min(2, os.cpu_count() or 1)

#: (protocol, subflows) of one ``packet_protocols`` pass, on the paired workload.
PROTOCOLS = (("tcp", 1), ("mptcp", 8), ("mmptcp", 8))

CAMPAIGN_SCENARIOS = (
    "baseline",
    "core-link-failure",
    "degraded-core",
    "incast-burst",
    "incast-link-failure",
    "vm-migration",
)
CAMPAIGN_PROTOCOLS = ("tcp", "mptcp", "mmptcp")
CAMPAIGN_REPLICATIONS = 8

#: Scenario family of each campaign scenario (per-cell wall-clock is reported
#: by family: a timer gain that costs steady forwarding shows as incast down,
#: baseline up).
SCENARIO_FAMILY = {
    "baseline": "baseline",
    "core-link-failure": "fault",
    "degraded-core": "fault",
    "incast-burst": "incast",
    "incast-link-failure": "incast",
    "vm-migration": "mobility",
}

Op = Tuple[str, bool]  # (what was attempted, whether it succeeded)

#: A run or sweep point fails below this short-flow completion rate.  Not 1.0:
#: on some seeds (23 and 29 of 1-30) one MMPTCP short flow of the quick packet
#: run stalls with no RTO and never completes, on any commit; the benchmark
#: needs workloads on which no op fails, and ``transport.short_flows_incomplete``
#: reports the stalled flows instead.
MIN_COMPLETION_RATE = 0.95


@dataclass
class PassResult:
    """One timed pass: its cost, the ops it attempted and what it produced."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    ops: List[Op]
    cells: int
    flows: int = 0
    events: int = 0
    #: sha256 of the pass's simulated rows, when the pass materialised them.
    digest: Optional[str] = None
    #: What only the traced run reads (full results, the CLI's event feed); the
    #: untraced runner drops it so that no pass holds memory into the next.
    detail: Dict[str, Any] = field(default_factory=dict)


def attempt(label: str, ops: List[Op], call: Callable[[], Any]) -> Any:
    """Run one op; an exception is a failed op, not a crashed benchmark."""
    try:
        return call()
    except Exception:  # the ledger must keep counting after a failed op
        traceback.print_exc(file=sys.stderr)
        ops.append((label, False))
        return None


def in_process_pass(body: Callable[[List[Op]], Dict[str, Any]]) -> PassResult:
    """Time ``body`` in this process; it fills ops and returns the pass fields."""
    ops: List[Op] = []
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    fields = body(ops)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    rows = fields.pop("rows")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return PassResult(
        wall_s=wall_s, cpu_s=cpu_s, rss_mb=rss_mb, ops=ops, digest=sim_digest(rows), **fields
    )


def event_chain_us_per_event(events: int = 200_000) -> float:
    """Cost of one bare event: a callback that only re-schedules itself.

    The machine-speed calibration printed with every run; ``sim.dispatch_s``
    is this times the workload's event count.
    """
    simulator = Simulator()
    remaining = [events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0]:
            simulator.schedule(1e-6, tick)

    simulator.schedule(0.0, tick)
    started = time.perf_counter()
    simulator.run()
    return (time.perf_counter() - started) / events * 1e6


class Workload:
    """What the runner calls: ``setup``, then ``run_pass`` per pass, then ``verify``."""

    name: str
    why: str
    #: Untraced passes the ledger command makes (ISSUE 11's counts).  A driver
    #: run makes as many as fit in ``run_seconds``, at least one.
    passes: int
    #: Simulated statistics a set-up computed, by name; exact for a seed.
    setup_facts: Dict[str, float] = {}

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def verify(self, passes: List[PassResult]) -> List[Op]:
        """Untimed output checks after the last pass; each is one more op."""
        return []


# ---------------------------------------------------------------------------
# packet_protocols
# ---------------------------------------------------------------------------


class PacketProtocols(Workload):
    name = "packet_protocols"
    passes = 3
    why = (
        "TCP, MPTCP(8), MMPTCP(8) packet runs at quick scale: millions of cheap "
        "events through sim dispatch, net and transport/core; flowlevel, store, pool idle"
    )

    def setup(self, seed: int, workdir: Path) -> None:
        base = scaled_config("quick", seed)
        self.seed = seed
        self.configs = [base.with_protocol(protocol, n) for protocol, n in PROTOCOLS]

    def run_pass(self, index: int) -> PassResult:
        def body(ops: List[Op]) -> Dict[str, Any]:
            results, run_s = [], {}
            for config in self.configs:
                started = time.perf_counter()
                result = attempt(config.protocol, ops, lambda: run_experiment(config))
                run_s[config.protocol] = time.perf_counter() - started
                if result is not None:
                    rate = result.metrics.short_flow_completion_rate()
                    ops.append((config.protocol, rate >= MIN_COMPLETION_RATE))
                    results.append(result)
            return {
                "rows": [result.metrics.summary_dict() for result in results],
                "cells": len(self.configs),
                "flows": sum(result.workload_size for result in results),
                "events": sum(result.events_processed for result in results),
                "detail": {"run_s": run_s, "results": results},
            }

        return in_process_pass(body)


# ---------------------------------------------------------------------------
# fluid_loadsweep
# ---------------------------------------------------------------------------

FLUID_LOAD_FACTORS = (0.5, 1.0)

#: The accuracy scenario: ``tiny_config`` with 100 short flows instead of a
#: dozen, so that the mean short-flow FCT is not two flows' luck.  The packet
#: tier is the reference execution; it takes ~0.8 s, the fluid tier ~0.03 s.
FIDELITY_SCENARIO = dict(
    protocol="mmptcp", max_short_flows=100, short_flow_rate_per_sender=20.0,
    arrival_window_s=0.6,
)


def fluid_fct_error_pct(seed: int) -> float:
    """|mean short FCT fluid - packet| / packet, in %, on the accuracy scenario."""
    packet = run_experiment(tiny_config(seed=seed, **FIDELITY_SCENARIO))
    fluid = run_experiment(tiny_config(seed=seed, fidelity="flow", **FIDELITY_SCENARIO))
    reference = packet.metrics.short_flow_fct_summary().mean
    return abs(fluid.metrics.short_flow_fct_summary().mean - reference) / reference * 100.0


class FluidLoadsweep(Workload):
    name = "fluid_loadsweep"
    passes = 3
    why = (
        "1,010-flow MMPTCP load sweep on the fluid tier: a few thousand heavy events "
        "through flowlevel and the max-min solver; the packet data plane is idle"
    )

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = tiny_config(
            seed=seed,
            protocol="mmptcp",
            fidelity="flow",
            max_short_flows=500,
            short_flow_rate_per_sender=1200,
            arrival_window_s=1.2,
        )
        self.setup_facts = {"fluid_fct_error_pct": fluid_fct_error_pct(seed)}

    def run_pass(self, index: int) -> PassResult:
        def body(ops: List[Op]) -> Dict[str, Any]:
            points = attempt(
                "sweep", ops,
                lambda: run_load_sweep(
                    self.config, protocols=("mmptcp",),
                    load_factors=FLUID_LOAD_FACTORS, workers=1,
                ),
            ) or []
            for point in points:
                ops.append(
                    (f"load={point.load_factor}", point.completion_rate >= MIN_COMPLETION_RATE)
                )
            return {
                "rows": load_sweep_rows(points),
                "cells": len(FLUID_LOAD_FACTORS),
                "flows": sum(point.result.workload_size for point in points),
                "events": sum(point.result.events_processed for point in points),
            }

        return in_process_pass(body)


# ---------------------------------------------------------------------------
# campaign_cold / campaign_warm
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"cache_hits=(\d+) simulated=(\d+)")


@dataclass
class CliRun:
    """One ``campaign run`` subprocess: its cost and what it reported."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    cache_hits: int
    simulated: int
    events: List[Dict[str, Any]]
    report: bytes


def campaign_argv(spec: Path, store: Path, workers: int, tag: str) -> List[str]:
    """The ``campaign run`` arguments a pass uses (after the program name)."""
    directory = spec.parent
    return [
        "campaign", "run",
        "--spec", str(spec),
        "--store", str(store),
        "--workers", str(workers),
        "--progress-events", str(directory / f"{tag}.events.jsonl"),
        "--report", str(directory / f"{tag}.report.md"),
    ]


def run_cli(spec: Path, store: Path, tag: str) -> CliRun:
    """``repro-mmptcp campaign run`` as a subprocess, timed from spawn to exit."""
    directory = spec.parent
    argv = [sys.executable, "-m", "repro.cli"] + campaign_argv(spec, store, WORKERS, tag)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    output = directory / f"{tag}.stdout.txt"
    started = time.perf_counter()
    with output.open("w") as stdout:
        process = subprocess.Popen(argv, stdout=stdout, env=env)
        # wait4 gives this child's own usage (and its reaped pool workers'),
        # where RUSAGE_CHILDREN would mix in every earlier pass.
        _, status, usage = os.wait4(process.pid, 0)
    wall_s = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)

    summary = _SUMMARY.search(output.read_text())
    hits, simulated = (int(group) for group in summary.groups()) if summary else (0, 0)
    events_path = directory / f"{tag}.events.jsonl"
    report_path = directory / f"{tag}.report.md"
    return CliRun(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=process.returncode,
        cache_hits=hits,
        simulated=simulated,
        events=[json.loads(line) for line in events_path.read_text().splitlines()]
        if events_path.exists() else [],
        report=report_path.read_bytes() if report_path.exists() else b"",
    )


class _Campaign(Workload):
    """Spec generation and the checks the cold and warm workloads share."""

    scenarios = CAMPAIGN_SCENARIOS
    protocols = CAMPAIGN_PROTOCOLS
    replications = CAMPAIGN_REPLICATIONS

    def spec_document(self, replications: Optional[int] = None) -> Dict[str, Any]:
        """The campaign spec file's content; ``replications=1`` is the traced subset."""
        return {
            "name": "ledger",
            "scenarios": list(self.scenarios),
            "protocols": list(self.protocols),
            "replications": replications or self.replications,
            "scale": "tiny",
            "seed": self.seed,
        }

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = CampaignSpec.from_dict(self.spec_document())
        self.spec_path = workdir / "spec.json"
        self.spec_path.write_text(dumps_deterministic(self.spec_document()))
        self.cell_count = self.spec.cell_count()

    def stored_rows(self, store: Path) -> Tuple[List[Dict[str, object]], int]:
        """(campaign_rows, total flows) read back from ``store``."""
        cells = load_campaign_cells(self.spec, RunStore(store))
        return campaign_rows(cells), sum(len(cell.result.metrics.flows) for cell in cells)

    def cell_ops(self, run: CliRun, event_kind: str) -> List[Op]:
        """One op per declared cell: it needs its progress event and a clean exit."""
        seen = {event["index"] for event in run.events if event["event"] == event_kind}
        return [
            (f"cell{index}", run.returncode == 0 and index in seen)
            for index in range(self.cell_count)
        ]


class CampaignCold(_Campaign):
    name = "campaign_cold"
    passes = 5
    why = (
        "144-cell campaign through the CLI into an empty store with 2 workers: "
        "cli, campaigns, pool IPC, scenarios/faults, store writes, report"
    )

    def run_pass(self, index: int) -> PassResult:
        store = self.workdir / f"store-{index}"
        run = run_cli(self.spec_path, store, f"cold-{index}")
        ops = self.cell_ops(run, "cell_finish")
        ops.append(("simulated==cells", run.simulated == self.cell_count))
        ops.append(("cache_hits==0", run.cache_hits == 0))
        rows, flows = attempt("rows", ops, lambda: self.stored_rows(store)) or ([], 0)
        self.last_rows = rows
        return PassResult(
            wall_s=run.wall_s, cpu_s=run.cpu_s, rss_mb=run.rss_mb, ops=ops,
            cells=self.cell_count, flows=flows,
            events=sum(event.get("events_processed", 0) for event in run.events),
            digest=sim_digest(rows), detail={"run": run},
        )

    def verify(self, passes: List[PassResult]) -> List[Op]:
        """``--workers 1`` must give the bytes ``--workers 2`` gave.

        The check re-simulates replication 0 of every cell in-process with
        one worker (cell seeds and keys do not depend on the replication
        count) and compares its ``campaign_rows`` bytes with the same cells
        of the timed multi-worker pass.
        """
        ops: List[Op] = []
        subset = CampaignSpec.from_dict(self.spec_document(replications=1))

        def serial_rows() -> List[Dict[str, object]]:
            outcome = run_campaign(subset, RunStore(self.workdir / "store-serial"), workers=1)
            return campaign_rows(outcome.cells)

        serial = attempt("workers1==workers2", ops, serial_rows)
        if serial is not None:
            pooled = [row for row in self.last_rows if row["replication"] == 0]
            ops.append(
                ("workers1==workers2", dumps_deterministic(serial) == dumps_deterministic(pooled))
            )
        return ops


class CampaignWarm(_Campaign):
    name = "campaign_warm"
    passes = 20
    why = (
        "the same campaign against the store a cold run filled: 144 cache hits, zero "
        "simulation; store reads, integrity verify, report render and CLI start-up"
    )

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.store = workdir / "store-warm"
        self.cold = run_cli(self.spec_path, self.store, "populate")
        if self.cold.returncode != 0 or self.cold.simulated != self.cell_count:
            raise RuntimeError("campaign_warm set-up: the populating cold run failed")
        self.rows: Optional[Tuple[List[Dict[str, object]], int]] = None

    def run_pass(self, index: int) -> PassResult:
        run = run_cli(self.spec_path, self.store, f"warm-{index}")
        ops = self.cell_ops(run, "cell_hit")
        ops.append(("simulated==0", run.simulated == 0))
        ops.append(("cache_hits==cells", run.cache_hits == self.cell_count))
        ops.append(("report==cold report", run.report == self.cold.report))
        digest = None
        if self.rows is None:
            # Every pass reads the same artifacts; materialise the rows once.
            self.rows = attempt("rows", ops, lambda: self.stored_rows(self.store)) or ([], 0)
            digest = sim_digest(self.rows[0])
        return PassResult(
            wall_s=run.wall_s, cpu_s=run.cpu_s, rss_mb=run.rss_mb, ops=ops,
            cells=self.cell_count, flows=self.rows[1], digest=digest, detail={"run": run},
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PacketProtocols, FluidLoadsweep, CampaignCold, CampaignWarm)
}
