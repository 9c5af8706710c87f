"""The traced run: per-layer metrics for one workload.

A traced run never feeds an end-to-end metric.  It makes one untraced
reference pass (so that ratios have their base in the same process and
machine state), then repeats the pass under each instrument:

* *handlers* — the ledger composes the run from the public builders exactly
  as ``run_experiment`` / ``run_flow_experiment`` do, with a span around each
  phase and a :class:`~benchmarks.ledger.tracing.HandlerTimer` on the public
  ``Simulator.profiler`` hook;
* *cprofile* — ``cProfile`` around the same public call the untraced pass
  makes; functions are bucketed by ``src/repro/<package>/<module>.py``.

The campaign workloads trace ``repro.cli.main`` in-process with one worker on
the 18-cell one-replication subset; their pool numbers come from the untraced
multi-worker pass's ``--progress-events`` feed.

cProfile inflates call-heavy code (about 3.5x on a quick packet run, 2.2x on
the fluid run), so ``self_s`` ranks layers and compares before/after on one
machine; ``calls`` and every ``count`` repeat exactly.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import os
import pickle
import pstats
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro import cli
from repro.campaigns import (
    campaign_report,
    campaign_rows,
    campaign_status,
    load_campaign_cells,
)
from repro.experiments import build_topology, build_workload, create_flow, run_experiment
from repro.experiments.config import ExperimentConfig
from repro.flowlevel import FlowLevelEngine, FluidFabric
from repro.metrics.export import dumps_deterministic
from repro.net.faults import FaultInjector
from repro.net.packet import default_pool, set_pool_profile
from repro.obs.profiler import pool_counters
from repro.obs.telemetry import TelemetryRecorder
from repro.sim.engine import Simulator
from repro.sim.fluid import max_min_rates
from repro.sim.randomness import RandomStreams
from repro.store.canonical import run_key
from repro.store.runstore import RunStore

from benchmarks.ledger.layers import benchmark
from benchmarks.ledger.tracing import (
    HandlerTimer,
    SpanRecorder,
    function_stat,
    profile_buckets,
    ranked_budget,
)
from benchmarks.ledger.workloads import (
    FLUID_LOAD_FACTORS,
    SCENARIO_FAMILY,
    SRC,
    WORKERS,
    CampaignCold,
    CampaignWarm,
    FluidLoadsweep,
    Op,
    PacketProtocols,
    PassResult,
    campaign_argv,
)

_CATALOGUE = frozenset(metric["name"] for metric in benchmark()["per_layer"])

Measured = Dict[str, float]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_us(call: Callable[[], Any], repeats: int = 9) -> float:
    """Median host time of ``call`` in microseconds."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


# ---------------------------------------------------------------------------
# Micro-measurements: direct timed calls into public functions
#
# Each is taken once, in the traced run of the workload it bears on (the →
# column of the README's interaction map), on that workload's own outputs.
# ---------------------------------------------------------------------------


def solve_1k_us(seed: int) -> float:
    """``max_min_rates`` on a seeded input: 250 flows x 4 subflows of weight 1/4."""
    rng = random.Random(seed)
    links = [f"link{index}" for index in range(48)]
    capacities = {link: 1e8 for link in links}
    paths = {(flow, sub): rng.sample(links, 4) for flow in range(250) for sub in range(4)}
    weights = {key: 0.25 for key in paths}
    return _median_us(lambda: max_min_rates(capacities, paths, weights), repeats=5)


def store_write_measurements(workload: CampaignCold, store: Path, workdir: Path) -> Measured:
    """What one cell costs the campaign's parent process, on cell 0 of ``store``."""
    cells = load_campaign_cells(workload.spec, RunStore(store))
    cell, rows = cells[0], campaign_rows(cells)
    scratch = RunStore(workdir / "store-micro")
    put_us = _median_us(lambda: scratch.put(cell.key, cell.result))
    return {
        "store.run_key_us": _median_us(lambda: run_key(cell.result.config)),
        "store.put_us": put_us,
        "store.artifact_bytes": scratch.object_path(cell.key).stat().st_size,
        "experiments.result_pickle_bytes": len(pickle.dumps(cell.result)),
        "metrics.export_us": _median_us(lambda: dumps_deterministic(rows)),
    }


def store_read_measurements(workload: CampaignWarm, store: Path) -> Measured:
    """What a re-run pays beyond the 144 reads: one read, the report, CLI start-up."""
    key = campaign_status(workload.spec, RunStore(store))[0].key
    started = time.perf_counter()
    campaign_report(workload.spec, RunStore(store))
    report_s = time.perf_counter() - started
    return {
        "store.get_us": _median_us(lambda: RunStore(store).get(key)),
        "campaigns.report_s": report_s,
        "cli.startup_s": cli_startup_s(),
    }


def cli_startup_s(samples: int = 5) -> float:
    """Median wall of ``python -m repro.cli scenarios list``: interpreter + imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "scenarios", "list"],
            env=env, stdout=subprocess.DEVNULL, check=True,
        )
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# Shared assembly
# ---------------------------------------------------------------------------


def _profiled(call: Callable[[], Any]) -> Tuple[Any, float, Dict]:
    """(result, wall, pstats-shaped statistics) of ``call`` under cProfile.

    ``builtins=False``: time inside C functions stays with the ``repro``
    function that called them (``heappush`` belongs to the engine).
    """
    profile = cProfile.Profile(builtins=False)
    started = time.perf_counter()
    profile.enable()
    try:
        result = call()
    finally:
        profile.disable()
    wall_s = time.perf_counter() - started
    return result, wall_s, pstats.Stats(profile).stats


def _bucket_metrics(buckets: Dict[str, Dict[str, float]]) -> Measured:
    """``<bucket>.self_s`` / ``<bucket>.calls`` for the buckets the catalogue names."""
    measured: Measured = {}
    for bucket, entry in buckets.items():
        for suffix in ("self_s", "calls"):
            name = f"{bucket}.{suffix}"
            if name in _CATALOGUE:
                measured[name] = entry[suffix]
    return measured


def _handler_metrics(timer: HandlerTimer) -> Measured:
    measured: Measured = {}
    for layer, (events, seconds) in timer.by_layer().items():
        if f"{layer}.handler_events" in _CATALOGUE:
            measured[f"{layer}.handler_events"] = events
        if f"{layer}.handler_s" in _CATALOGUE:
            measured[f"{layer}.handler_s"] = seconds
    return measured


def _sim_metrics(reference: PassResult) -> Measured:
    """The runner adds ``sim.event_chain_us_per_event`` and ``sim.dispatch_s``."""
    return {
        "sim.events": reference.events,
        "sim.us_per_event": _ratio(reference.wall_s, reference.events) * 1e6,
        "traffic.flows": reference.flows,
    }


def _cprofile_pass(
    workload: Any, spans: SpanRecorder, reference: PassResult, ops: List[Op]
) -> Tuple[float, Dict]:
    """(wall, statistics) of one more pass under cProfile; its checks join ``ops``.

    An instrument may not change what the pass computes, so the profiled
    pass must reproduce the untraced pass's digest.
    """
    with spans.span("pass.cprofile"):
        profiled, wall_s, stats = _profiled(lambda: workload.run_pass(1))
    ops.extend(profiled.ops)
    ops.append(("cprofile digest==untraced digest", profiled.digest == reference.digest))
    return wall_s, stats


# ---------------------------------------------------------------------------
# packet_protocols
# ---------------------------------------------------------------------------


def _composed_packet_run(
    config: ExperimentConfig, spans: SpanRecorder, timer: HandlerTimer
) -> Simulator:
    """One packet run built from the public pieces, as ``run_experiment`` builds it."""
    simulator = Simulator()
    simulator.profiler = timer
    streams = RandomStreams(config.seed)
    with spans.span("topology.build"):
        topology = build_topology(config, simulator)
    if config.fault_schedule:
        FaultInjector(simulator, topology, config.fault_schedule).arm()
    with spans.span("traffic.build"):
        workload = build_workload(config, topology, streams)
    with spans.span("transport.create_flows", flows=len(workload.flows)):
        for spec in workload.flows:
            instance = create_flow(spec, config, topology, simulator, streams)
            simulator.schedule_at(spec.start_time, instance.sender.start)
    with spans.span("sim.run"):
        simulator.run(until=config.horizon_s)
        timer.finish()
    with spans.span("metrics.snapshot"):
        topology.monitor().snapshot(config.horizon_s)
    return simulator


def _span_metrics(spans: SpanRecorder) -> Measured:
    return {
        "topology.build_s": spans.total("topology.build"),
        "traffic.build_s": spans.total("traffic.build"),
        "transport.create_flows_s": spans.total("transport.create_flows"),
        "sim.run_s": spans.total("sim.run"),
        "metrics.snapshot_s": spans.total("metrics.snapshot"),
    }


def trace_packet_protocols(
    workload: PacketProtocols, spans: SpanRecorder, workdir: Path
) -> Tuple[Measured, List[Op], Dict[str, Any]]:
    with spans.span("pass.untraced"):
        reference = workload.run_pass(0)
    ops = list(reference.ops)
    results = {result.config.protocol: result for result in reference.detail["results"]}
    run_s = reference.detail["run_s"]

    timer = HandlerTimer()
    pool = default_pool()
    profile_was = set_pool_profile(True)
    pool_before = pool_counters(pool)
    try:
        with spans.span("pass.handlers"):
            simulators = []
            for config in workload.configs:
                with spans.span(f"run.{config.protocol}"):
                    simulators.append(_composed_packet_run(config, spans, timer))
        pool_after = pool_counters(pool)
        highwater = pool.highwater
    finally:
        set_pool_profile(profile_was)
    composed_events = sum(simulator.events_processed for simulator in simulators)
    ops.append(("composed events==untraced events", composed_events == reference.events))

    profiled_wall, stats = _cprofile_pass(workload, spans, reference, ops)
    buckets = profile_buckets(stats)

    with spans.span("pass.probes_on"):
        started = time.perf_counter()
        run_experiment(workload.configs[-1], probes=TelemetryRecorder())
        probes_on_s = time.perf_counter() - started

    records = [record for result in results.values() for record in result.metrics.flows]
    sent = sum(record.data_packets_sent for record in records)
    retransmitted = sum(record.retransmitted_packets for record in records)
    allocated = pool_after["allocated"] - pool_before["allocated"]
    reused = pool_after["reused"] - pool_before["reused"]
    wheels = [simulator.timer_wheel for simulator in simulators]
    measured: Measured = {
        **_sim_metrics(reference),
        **_span_metrics(spans),
        **_handler_metrics(timer),
        **_bucket_metrics(buckets),
        "sim.timerwheel.cascades": sum(wheel.cascades for wheel in wheels),
        "sim.timerwheel.sweeps": sum(wheel.sweeps for wheel in wheels),
        "sim.heap_compactions": sum(simulator.heap_compactions for simulator in simulators),
        "net.packets_dropped": sum(
            result.metrics.network.total_packets_dropped for result in results.values()
        ),
        "net.fault_drops": sum(result.metrics.fault_drops for result in results.values()),
        "net.pool.allocated": allocated,
        "net.pool.reused": reused,
        "net.pool.reuse_ratio": _ratio(reused, allocated + reused),
        "net.pool.highwater": highwater,
        "transport.tcp_run_s": run_s.get("tcp", 0.0),
        "transport.mptcp_run_s": run_s.get("mptcp", 0.0),
        "core.mmptcp_run_s": run_s.get("mmptcp", 0.0),
        "transport.data_packets_sent": sent,
        "transport.retransmitted_packets": retransmitted,
        "transport.useful_ratio": 1.0 - _ratio(retransmitted, sent),
        "transport.rto_events": sum(record.rto_events for record in records),
        "transport.short_flows_incomplete": sum(
            1
            for record in records
            if not record.is_long and record.receiver_completion_time is None
        ),
        "core.phase_switches": sum(1 for record in records if record.switch_time is not None),
        "obs.trace_overhead_ratio": _ratio(profiled_wall, reference.wall_s),
        "obs.probes_on_ratio": _ratio(probes_on_s, run_s.get("mmptcp", 0.0)),
    }
    for protocol, name in (
        ("tcp", "transport.tcp_short_fct_p99_ms"),
        ("mptcp", "transport.mptcp_short_fct_p99_ms"),
        ("mmptcp", "core.mmptcp_short_fct_p99_ms"),
    ):
        if protocol in results:
            measured[name] = results[protocol].metrics.short_flow_fct_summary().p99
    if "mmptcp" in results:
        measured["core.mmptcp_long_goodput_mbps"] = (
            results["mmptcp"].metrics.mean_long_flow_throughput_bps() / 1e6
        )
        measured["metrics.summary_us"] = _median_us(results["mmptcp"].metrics.summary_dict)
    return measured, ops, {"digest": reference.digest, "budget": ranked_budget(buckets)}


# ---------------------------------------------------------------------------
# fluid_loadsweep
# ---------------------------------------------------------------------------


class _FluidRecorder(TelemetryRecorder):
    """The ``fluid`` probe group, plus the exact peak of ``fluid.active_flows``.

    The recorder's series are down-sampled, so a peak has to be taken as the
    samples arrive.
    """

    def __init__(self) -> None:
        super().__init__(groups=("fluid",))
        self.active_flows_peak = 0

    def sample(self, name: str, time_s: float, value: float) -> None:
        if name == "fluid.active_flows" and value > self.active_flows_peak:
            self.active_flows_peak = int(value)
        super().sample(name, time_s, value)


def _composed_fluid_run(
    config: ExperimentConfig, spans: SpanRecorder, timer: HandlerTimer, recorder: _FluidRecorder
) -> Simulator:
    """One fluid run built from the public pieces, as ``run_flow_experiment`` builds it."""
    simulator = Simulator()
    simulator.profiler = timer
    streams = RandomStreams(config.seed)
    with spans.span("topology.build"):
        topology = build_topology(config, simulator)
    with spans.span("traffic.build"):
        workload = build_workload(config, topology, streams)
    with spans.span("flowlevel.build", flows=len(workload.flows)):
        engine = FlowLevelEngine(config, FluidFabric(topology), workload, streams, probes=recorder)
        if config.fault_schedule:
            engine.arm_faults(config.fault_schedule)
        engine.start()
    with spans.span("sim.run"):
        simulator.run(until=config.horizon_s)
        timer.finish()
    with spans.span("metrics.snapshot"):
        engine.finalise(config.horizon_s)
    return simulator


def trace_fluid_loadsweep(
    workload: FluidLoadsweep, spans: SpanRecorder, workdir: Path
) -> Tuple[Measured, List[Op], Dict[str, Any]]:
    with spans.span("pass.untraced"):
        reference = workload.run_pass(0)
    ops = list(reference.ops)

    timer = HandlerTimer()
    recorder = _FluidRecorder()
    base = workload.config
    with spans.span("pass.handlers"):
        simulators = []
        for factor in FLUID_LOAD_FACTORS:
            # The sweep point's config, derived as run_load_sweep derives it.
            config = base.with_protocol("mmptcp", base.num_subflows).with_updates(
                short_flow_rate_per_sender=base.short_flow_rate_per_sender * factor
            )
            with spans.span(f"run.load={factor}"):
                simulators.append(_composed_fluid_run(config, spans, timer, recorder))
    composed_events = sum(simulator.events_processed for simulator in simulators)
    ops.append(("composed events==untraced events", composed_events == reference.events))

    profiled_wall, stats = _cprofile_pass(workload, spans, reference, ops)
    buckets = profile_buckets(stats)
    solves, _, _ = function_stat(stats, "sim/fluid.py", "max_min_rates")

    recomputes = recorder.counters.get("fluid.recomputes", 0)
    handler_s = timer.by_layer().get("flowlevel", (0, 0.0))[1]
    measured: Measured = {
        **_sim_metrics(reference),
        **_span_metrics(spans),
        **_handler_metrics(timer),
        **_bucket_metrics(buckets),
        "sim.fluid.solves": solves,
        "sim.fluid.solve_1k_us": solve_1k_us(workload.seed),
        "flowlevel.fct_error_pct": workload.setup_facts["fluid_fct_error_pct"],
        "sim.fluid.us_per_solve": _ratio(buckets.get("sim.fluid", {}).get("self_s", 0.0), solves)
        * 1e6,
        "flowlevel.recomputes": recomputes,
        "flowlevel.active_flows_peak": recorder.active_flows_peak,
        "flowlevel.events_per_flow": _ratio(reference.events, reference.flows),
        "flowlevel.us_per_flow": _ratio(reference.wall_s, reference.flows) * 1e6,
        "flowlevel.us_per_recompute": _ratio(handler_s, recomputes) * 1e6,
        "obs.trace_overhead_ratio": _ratio(profiled_wall, reference.wall_s),
    }
    return measured, ops, {"digest": reference.digest, "budget": ranked_budget(buckets)}


# ---------------------------------------------------------------------------
# campaign_cold / campaign_warm
# ---------------------------------------------------------------------------

#: Span-like numbers for the in-process campaign pass: cumulative cProfile
#: time of the public function that bounds each phase (inflated like self_s).
_CAMPAIGN_PHASES = {
    "topology.build_s": ("experiments/runner.py", "build_topology"),
    "traffic.build_s": ("experiments/runner.py", "build_workload"),
    "transport.create_flows_s": ("experiments/runner.py", "create_flow"),
    "sim.run_s": ("sim/engine.py", "run"),
    "metrics.snapshot_s": ("net/monitor.py", "snapshot"),
}


def _cli_in_process(argv: List[str]) -> float:
    """Wall of ``repro.cli.main(argv)`` in this process, its output discarded."""
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro.cli.main exited {code}")
    return time.perf_counter() - started


def _pool_metrics(reference: PassResult) -> Measured:
    """Pool and per-family cell cost from the untraced pass's progress events."""
    run = reference.detail["run"]
    cell_walls: Dict[str, List[float]] = {}
    for event in run.events:
        if event["event"] == "cell_finish":
            family = SCENARIO_FAMILY[event["scenario"]]
            cell_walls.setdefault(family, []).append(event["diagnostics"]["wallclock_s"])
    cell_s_sum = sum(sum(walls) for walls in cell_walls.values())
    measured: Measured = {
        "store.hits": run.cache_hits,
        "store.misses": run.simulated,
        "store.hit_ratio": _ratio(run.cache_hits, run.cache_hits + run.simulated),
        "experiments.cell_s_sum": cell_s_sum,
    }
    if cell_s_sum:
        measured["experiments.pool_efficiency"] = _ratio(cell_s_sum, WORKERS * reference.wall_s)
        measured["experiments.pool_overhead_s"] = reference.wall_s - cell_s_sum / WORKERS
    for family, walls in cell_walls.items():
        measured[f"scenarios.{family}_cell_s"] = statistics.median(walls)
    return measured


def trace_campaign(
    workload: CampaignCold, spans: SpanRecorder, workdir: Path
) -> Tuple[Measured, List[Op], Dict[str, Any]]:
    warm = isinstance(workload, CampaignWarm)
    with spans.span("pass.untraced"):
        reference = workload.run_pass(0)
    ops = list(reference.ops)
    full_store = workdir / ("store-warm" if warm else "store-0")

    subset_path = workdir / "subset.json"
    subset_path.write_text(
        dumps_deterministic(workload.spec_document(replications=1))
    )

    def subset_pass(tag: str) -> Callable[[], float]:
        store = workdir / f"store-{tag}"
        argv = campaign_argv(subset_path, store, 1, tag)
        if warm:
            _cli_in_process(argv)  # fill the store; the traced pass then only hits
        return lambda: _cli_in_process(argv)

    with spans.span("pass.subset_untraced"):
        subset_wall = subset_pass("subset-plain")()
    with spans.span("pass.cprofile"):
        _, profiled_wall, stats = _profiled(subset_pass("subset-cprofile"))
    buckets = profile_buckets(stats)

    with spans.span("micro"):
        if warm:
            micro = store_read_measurements(workload, full_store)
        else:
            micro = store_write_measurements(workload, full_store, workdir)

    measured: Measured = {
        **micro,
        **_sim_metrics(reference),
        **_bucket_metrics(buckets),
        **_pool_metrics(reference),
        "obs.trace_overhead_ratio": _ratio(profiled_wall, subset_wall),
    }
    for name, (file_suffix, function) in _CAMPAIGN_PHASES.items():
        measured[name] = function_stat(stats, file_suffix, function)[2]
    return measured, ops, {"digest": reference.digest, "budget": ranked_budget(buckets)}


TRACERS = {
    PacketProtocols.name: trace_packet_protocols,
    FluidLoadsweep.name: trace_fluid_loadsweep,
    CampaignCold.name: trace_campaign,
    CampaignWarm.name: trace_campaign,
}
