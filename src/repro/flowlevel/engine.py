"""Flow-level (fluid) experiment engine.

Where the packet tier simulates every segment, ACK and queue occupancy, this
tier models each transfer as a bandwidth-sharing connection over its path(s):
the weighted max-min solver (:mod:`repro.sim.fluid`) assigns every active
subflow a rate, and rates only change on *events* — a flow arriving, a flow
completing, or a fault altering link capacity.  Between events each flow
drains at its assigned rate, so a flow costs a handful of simulator events
instead of thousands, which is what buys the 100× flow-count headroom.

The tier plugs into everything the packet tier already defined:

* the same :class:`~repro.sim.engine.Simulator` event core and timers
  (completion deadlines are re-armable timers; same-time arrivals coalesce
  into a single rate recomputation),
* the same topology construction, fault schedules and seed streams,
* the same :class:`~repro.metrics.collector.ExperimentMetrics` /
  :class:`~repro.metrics.records.FlowRecord` surface, so reports, stores and
  campaign caching work unchanged.

Documented approximations (validated against the packet engine in
``tests/test_flowlevel.py``; tolerances in the README's fidelity section):

* **Multipath coupling** — an MPTCP flow with ``k`` usable subflow paths is
  ``k`` max-min participants of weight ``1/k`` each, so the whole flow
  weighs like one TCP flow at a shared bottleneck (the goal of coupled
  congestion control) while still filling disjoint paths.  MMPTCP
  spreads weight over *every* equal-cost path, modelling its scatter
  phase.
* **Startup latency** — a per-flow additive correction (handshake RTT,
  slow-start ramp deficit against the path's line rate, last-byte delivery)
  stands in for connection establishment and window growth.
* **Failures stall, they do not re-route** — a subflow crossing a dead link
  holds rate zero until the link returns; multipath siblings keep going.
  The packet tier's ECMP re-convergence has no fluid equivalent, so
  fault-heavy scenarios are where the tiers diverge most.
* **No losses** — fluid links never drop; loss-rate and RTO columns are
  structurally zero at this fidelity.
"""

from __future__ import annotations

import time as _wallclock
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.metrics.collector import ExperimentMetrics, ExperimentResult
from repro.metrics.records import FlowRecord
from repro.net.monitor import LayerLossStats, NetworkSnapshot
from repro.obs.profiler import EngineProfiler, profile_diagnostics
from repro.obs.telemetry import NULL_PROBES, TelemetryProbes
from repro.sim.engine import Simulator
from repro.sim.fluid import MaxMinSolver
from repro.sim.randomness import RandomStreams
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, FlowSpec
from repro.traffic.workloads import Workload

from repro.flowlevel.fabric import FluidFabric, FluidFaultApplier, Link, LinkPath


class _FluidFlow:
    """Live state of one transfer inside the fluid engine."""

    __slots__ = (
        "spec",
        "subflow_paths",
        "subflow_keys",
        "weight",
        "overhead_s",
        "remaining_bits",
        "rate_bps",
        "started",
        "completed_at",
        "timer",
    )

    def __init__(self, spec: FlowSpec, subflow_paths: List[LinkPath], overhead_s: float):
        self.spec = spec
        self.subflow_paths = subflow_paths
        #: The subflows' max-min participant keys, ``(flow_id, subflow_index)``.
        self.subflow_keys = [(spec.flow_id, index) for index in range(len(subflow_paths))]
        #: Per-subflow weight; the flow's total max-min weight is always 1.0.
        self.weight = 1.0 / len(subflow_paths)
        self.overhead_s = overhead_s
        self.remaining_bits = spec.size_bytes * 8.0
        self.rate_bps = 0.0
        self.started = False
        self.completed_at: Optional[float] = None
        self.timer = None


class FlowLevelEngine:
    """Bandwidth-sharing execution of one experiment's workload."""

    def __init__(
        self,
        config: ExperimentConfig,
        fabric: FluidFabric,
        workload: Workload,
        streams: RandomStreams,
        probes: TelemetryProbes = NULL_PROBES,
    ) -> None:
        self.config = config
        self.fabric = fabric
        self.simulator = fabric.topology.simulator
        self.probes = probes
        rng = streams.stream("flowlevel")
        self.flows: List[_FluidFlow] = []
        for spec in workload.flows:
            paths = self._subflow_paths(spec, rng)
            overhead = self._startup_overhead_s(spec, paths[0])
            self.flows.append(_FluidFlow(spec, paths, overhead))
        self._active: Dict[int, _FluidFlow] = {}
        #: Every active flow's subflows, registered from arrival to completion.
        self._solver: MaxMinSolver[Tuple[int, int]] = MaxMinSolver()
        self._last_update = 0.0
        self._recompute_pending = False
        self._recomputes = 0
        #: Integral of bits carried per directed link (utilisation metrics).
        self._carried_bits: Dict[Link, float] = {}
        self.fault_applier: Optional[FluidFaultApplier] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _subflow_paths(self, spec: FlowSpec, rng) -> List[LinkPath]:
        """The equal-cost paths this flow's subflows occupy.

        Single-path transports use one path; MPTCP uses up to
        ``num_subflows`` *distinct* paths; MMPTCP spreads over
        every equal-cost path (its scatter phase).  A seeded offset
        rotates which paths a flow lands on, standing in for ECMP hashing.
        """
        paths = self.fabric.paths_between(spec.source, spec.destination)
        protocol = spec.protocol
        if protocol == PROTOCOL_MMPTCP:
            count = len(paths)
        elif protocol == PROTOCOL_MPTCP:
            count = min(spec.num_subflows, len(paths))
        else:
            count = 1
        offset = rng.randrange(len(paths))
        return [paths[(offset + index) % len(paths)] for index in range(count)]

    def _startup_overhead_s(self, spec: FlowSpec, path: LinkPath) -> float:
        """Additive latency correction for connection startup.

        One RTT of handshake, the slow-start ramp's deficit against sending
        at the path's line rate (doubling from the initial window until the
        window covers the bandwidth-delay product or the flow runs out of
        bytes), and half an RTT for last-byte delivery.
        """
        config = self.config
        rtt = self.fabric.path_rtt_s(path, config.mss_bytes)
        bottleneck = min(self.fabric.original_rate_bps[link] for link in path)
        size_bits = spec.size_bytes * 8.0
        mss_bits = config.mss_bytes * 8.0
        cwnd_bits = config.initial_cwnd_segments * mss_bits
        window_full_bits = bottleneck * rtt
        sent_bits = 0.0
        rounds = 0
        while cwnd_bits < window_full_bits and sent_bits + cwnd_bits < size_bits:
            sent_bits += cwnd_bits
            cwnd_bits *= 2.0
            rounds += 1
        ramp_deficit = max(0.0, rounds * rtt - sent_bits / bottleneck)
        return 1.5 * rtt + ramp_deficit

    # ------------------------------------------------------------------
    # Event wiring
    # ------------------------------------------------------------------

    def arm_faults(self, schedule) -> None:
        """Validate and schedule the config's fault events on the fabric."""
        self.fault_applier = FluidFaultApplier(
            self.simulator, self.fabric, schedule, self._mark_dirty, probes=self.probes
        )
        self.fault_applier.arm()

    def start(self) -> None:
        """Schedule every flow's activation (start time plus startup latency)."""
        for flow in self.flows:
            self.simulator.schedule_at(
                flow.spec.start_time + flow.overhead_s, self._on_arrival, flow
            )

    def _on_arrival(self, flow: _FluidFlow) -> None:
        flow.started = True
        flow.timer = self.simulator.timer(self._on_complete)
        self._active[flow.spec.flow_id] = flow
        for key, path in zip(flow.subflow_keys, flow.subflow_paths):
            self._solver.add(key, path, flow.weight)
        self._mark_dirty()

    def _on_complete(self, flow: _FluidFlow) -> None:
        now = self.simulator.now
        self._drain_to(now)
        flow.remaining_bits = 0.0
        flow.completed_at = now
        flow.rate_bps = 0.0
        del self._active[flow.spec.flow_id]
        for key in flow.subflow_keys:
            self._solver.remove(key)
        self._mark_dirty()

    def _mark_dirty(self) -> None:
        """Coalesce same-instant arrivals/departures into one recompute.

        The recompute event draws a fresh sequence number, so it runs after
        every event already queued for the current instant: a synchronized
        incast batch of N arrivals costs one allocation, not N.
        """
        if not self._recompute_pending:
            self._recompute_pending = True
            self.simulator.schedule(0.0, self._run_recompute)

    def _run_recompute(self) -> None:
        self._recompute_pending = False
        self._recompute()

    # ------------------------------------------------------------------
    # Rate allocation
    # ------------------------------------------------------------------

    def _drain_to(self, now: float) -> None:
        """Advance every active flow by its current rate up to ``now``."""
        dt = now - self._last_update
        if dt > 0.0:
            for flow in self._active.values():
                if flow.rate_bps > 0.0:
                    flow.remaining_bits = max(0.0, flow.remaining_bits - flow.rate_bps * dt)
            # Each link's integral grows by its subflows' bits one addition
            # at a time in (flow id, subflow index) order — the solver's
            # member order.  The order is pinned by every stored artifact
            # (float addition is not associative), and builtin sum() would
            # make it depend on the Python version.
            bits = {key: rate * dt for key, rate in self._solver.rates.items()}
            carried = self._carried_bits
            for link, keys in self._solver.members.items():
                carried[link] = reduce(add, map(bits.__getitem__, keys), carried.get(link, 0.0))
        self._last_update = now

    def _recompute(self) -> None:
        """Re-solve the max-min allocation and re-arm completion deadlines."""
        now = self.simulator.now
        self._drain_to(now)
        self._recomputes += 1
        probes = self.probes
        if probes.enabled:
            probes.count("fluid.recomputes")
            probes.sample("fluid.active_flows", now, len(self._active))
        rates = self._solver.max_min_rates(self.fabric.capacities())
        for flow_id in sorted(self._active):
            flow = self._active[flow_id]
            total = 0.0
            for key in flow.subflow_keys:
                total += rates[key]
            flow.rate_bps = total
            if total > 0.0:
                flow.timer.arm(flow.remaining_bits / total, flow)
            else:
                # Stalled (every subflow crosses a dead link): no deadline
                # until a fault or departure frees capacity.
                flow.timer.cancel()

    # ------------------------------------------------------------------
    # Result extraction
    # ------------------------------------------------------------------

    def finalise(self, horizon_s: float) -> ExperimentMetrics:
        """Drain to the horizon and assemble the packet-compatible metrics."""
        if horizon_s > self._last_update:
            self._drain_to(horizon_s)
        metrics = ExperimentMetrics(duration_s=horizon_s)
        metrics.flows = [self._record_for(flow) for flow in self.flows]
        metrics.network = self._snapshot(horizon_s)
        return metrics

    def _record_for(self, flow: _FluidFlow) -> FlowRecord:
        spec = flow.spec
        record = FlowRecord(
            flow_id=spec.flow_id,
            protocol=spec.protocol,
            size_bytes=spec.size_bytes,
            is_long=spec.is_long,
            start_time=spec.start_time,
        )
        if flow.completed_at is not None:
            record.receiver_completion_time = flow.completed_at
            record.sender_completion_time = flow.completed_at
            record.bytes_received = spec.size_bytes
        else:
            delivered_bits = spec.size_bytes * 8.0 - flow.remaining_bits
            record.bytes_received = max(0, int(delivered_bits // 8))
        # The fluid model has no segments; report the packets an ideal
        # (loss-free, no-retransmit) sender would have emitted.
        mss = self.config.mss_bytes
        record.data_packets_sent = -(-record.bytes_received // mss) if flow.started else 0
        return record

    def _snapshot(self, horizon_s: float) -> NetworkSnapshot:
        """A loss-free :class:`NetworkSnapshot` from the rate integrals."""
        snapshot = NetworkSnapshot(duration_s=horizon_s)
        layer_links: Dict[str, List[Link]] = {}
        total_bits = 0.0
        for link in sorted(self.fabric.rate_bps):
            layer = self.fabric.layer_of[link]
            if layer != "host":
                snapshot.layer_loss.setdefault(layer, LayerLossStats(layer))
            layer_links.setdefault(layer, []).append(link)
            total_bits += self._carried_bits.get(link, 0.0)
        for layer in ("core", "edge"):
            links = layer_links.get(layer, [])
            if links and horizon_s > 0:
                # Accumulated left to right; see _drain_to on builtin sum().
                busy = 0.0
                for link in links:
                    busy += min(
                        1.0,
                        self._carried_bits.get(link, 0.0)
                        / (self.fabric.original_rate_bps[link] * horizon_s),
                    )
                utilisation = busy / len(links)
                if layer == "core":
                    snapshot.core_utilisation = utilisation
                else:
                    snapshot.edge_utilisation = utilisation
        snapshot.total_bytes_carried = int(total_bits // 8)
        return snapshot

    @property
    def recomputes(self) -> int:
        """Number of rate allocations solved (coalescing diagnostics)."""
        return self._recomputes


# ---------------------------------------------------------------------------
# Top-level entry point
# ---------------------------------------------------------------------------


def run_flow_experiment(
    config: ExperimentConfig,
    workload: Optional[Workload] = None,
    probes: Optional[TelemetryProbes] = None,
    profile: bool = False,
):
    """Run one experiment at flow-level fidelity; mirrors ``run_experiment``.

    Reuses the packet tier's topology and workload construction so the two
    tiers agree on the fabric and the flow population, then executes the
    fluid model instead of per-packet simulation.  Returns the same
    :class:`~repro.metrics.collector.ExperimentResult` shape.
    """
    # Imported here (not at module top) because the experiments runner
    # imports this module lazily for dispatch: a module-level cycle would
    # make import order load-bearing.
    from repro.experiments.runner import build_topology, build_workload

    # wallclock_s is a pure diagnostic: the store normalises it to 0.0 and no
    # metric derives from it, so the real-clock read cannot perturb results.
    # repro: allow[no-wallclock-or-global-random] -- diagnostic only
    wall_start = _wallclock.monotonic()
    simulator = Simulator()
    if profile:
        simulator.profiler = EngineProfiler()
    streams = RandomStreams(config.seed)
    topology = build_topology(config, simulator)
    if workload is None:
        workload = build_workload(config, topology, streams)

    fabric = FluidFabric(topology)
    engine = FlowLevelEngine(
        config,
        fabric,
        workload,
        streams,
        probes=probes if probes is not None else NULL_PROBES,
    )
    if config.fault_schedule:
        engine.arm_faults(config.fault_schedule)
    engine.start()
    simulator.run(until=config.horizon_s)
    metrics = engine.finalise(config.horizon_s)
    # repro: allow[no-wallclock-or-global-random] -- diagnostic only (above)
    wallclock_s = _wallclock.monotonic() - wall_start
    diagnostics = None
    if profile:
        diagnostics = profile_diagnostics(simulator.profiler, simulator, wallclock_s)
        diagnostics["fluid_recomputes"] = engine.recomputes
    return ExperimentResult(
        config=config,
        metrics=metrics,
        events_processed=simulator.events_processed,
        wallclock_s=wallclock_s,
        workload_size=len(workload.flows),
        diagnostics=diagnostics,
    )
