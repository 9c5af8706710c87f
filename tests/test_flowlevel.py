"""Tests for the flow-level (fluid) fidelity tier.

Three contract families:

* **Cross-validation** — on the golden tiny scenarios the fluid tier must
  land within the documented tolerances of the packet engine (FCT mean/p99
  within :data:`FCT_RELATIVE_TOLERANCE`; long-flow throughput optimistic by
  at most :data:`THROUGHPUT_RATIO_BOUNDS`).  These are the numbers the
  README's fidelity-tier table quotes.
* **Determinism** — byte-identical rows for any ``--workers`` value, and
  identical results across repeated in-process runs.
* **Scale** — the whole point of the tier: thousands of flows in a handful
  of events each, with synchronized (incast) arrivals coalescing into one
  rate recomputation per instant.

Plus the **artifact goldens**: ``tests/golden/flow_artifacts.json`` pins the
sha256 of every registry scenario's stored payload at flow fidelity, minus
its ``config`` (``tests/test_store_keys.py`` pins that), so a solver or
engine change that moves one rate by one ulp fails here and a config-schema
change does not.  If a
behaviour change is *intended*, regenerate with::

    python tests/test_flowlevel.py

and commit the updated golden together with the change that explains it.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import run_points, study_rows
from repro.experiments.config import FIDELITY_FLOW, FIDELITY_PACKET
from repro.experiments.runner import run_experiment
from repro.flowlevel import FluidFabric, FlowLevelEngine
from repro.metrics.export import dumps_deterministic
from repro.net.faults import LINK_UP, FaultEvent, host_migration, link_failure
from repro.experiments.parallel import execute_spec
from repro.scenarios import (
    all_scenarios,
    cell_rows,
    get_scenario,
    matrix_plan,
    scenario_cell_spec,
    tiny_config,
)
from repro.scenarios.spec import build_scenario_workload
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.store import canonical_dumps
from repro.store.serialize import result_to_dict
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_TCP, FlowSpec
from repro.traffic.workloads import Workload

#: Validated cross-engine tolerance for short-flow FCT mean and p99 on the
#: golden tiny scenarios (measured divergence is ~11–14%; the bound leaves
#: headroom without letting the model drift into a different regime).
FCT_RELATIVE_TOLERANCE = 0.30

#: Fluid long-flow throughput is *optimistic* — the packet tier pays
#: protocol inefficiencies (slow start re-entry, reordering stalls, RTO
#: idle time) that a loss-free fluid model does not — so the ratio
#: fluid/packet is bounded, not pinned (measured ~1.4–2.1×).
THROUGHPUT_RATIO_BOUNDS = (0.9, 2.6)


def _tiny(protocol: str, fidelity: str, **overrides):
    config = tiny_config(protocol=protocol, **overrides).with_updates(fidelity=fidelity)
    return run_experiment(config)


# ---------------------------------------------------------------------------
# Cross-validation against the packet engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["tcp", "mptcp", "mmptcp"])
def test_fluid_matches_packet_within_documented_tolerances(protocol) -> None:
    packet = _tiny(protocol, FIDELITY_PACKET).metrics.summary_dict()
    fluid = _tiny(protocol, FIDELITY_FLOW).metrics.summary_dict()

    assert fluid["short_completion_rate"] == packet["short_completion_rate"] == 1.0
    for metric in ("short_fct_mean_ms", "short_fct_p99_ms"):
        divergence = abs(fluid[metric] - packet[metric]) / packet[metric]
        assert divergence <= FCT_RELATIVE_TOLERANCE, (
            f"{protocol} {metric}: fluid {fluid[metric]:.3f} vs packet "
            f"{packet[metric]:.3f} diverges {100 * divergence:.1f}%"
        )
    ratio = fluid["long_flow_throughput_mbps"] / packet["long_flow_throughput_mbps"]
    low, high = THROUGHPUT_RATIO_BOUNDS
    assert low <= ratio <= high, f"{protocol} throughput ratio {ratio:.2f}"


def test_fluid_loss_and_rto_columns_are_structurally_zero() -> None:
    summary = _tiny("mmptcp", FIDELITY_FLOW).metrics.summary_dict()
    assert summary["rto_incidence"] == 0.0
    assert summary["edge_loss_rate"] == 0.0
    assert summary["fault_drops"] == 0.0


def test_fluid_runs_orders_of_magnitude_fewer_events() -> None:
    packet = _tiny("mptcp", FIDELITY_PACKET)
    fluid = _tiny("mptcp", FIDELITY_FLOW)
    assert fluid.workload_size == packet.workload_size
    assert fluid.events_processed * 100 < packet.events_processed


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_repeated_runs_are_identical() -> None:
    first = _tiny("mmptcp", FIDELITY_FLOW)
    second = _tiny("mmptcp", FIDELITY_FLOW)
    assert first.events_processed == second.events_processed
    assert first.metrics.summary_dict() == second.metrics.summary_dict()
    assert [vars(r) for r in first.metrics.flows] == [
        vars(r) for r in second.metrics.flows
    ]


def test_matrix_cell_rows_are_byte_identical_across_worker_counts() -> None:
    base = tiny_config().with_updates(fidelity=FIDELITY_FLOW)
    plan = matrix_plan(base, ("baseline", "core-link-failure"), ("tcp", "mmptcp"))
    serial = study_rows(run_points(plan, cell_rows, workers=1))
    parallel = study_rows(run_points(plan, cell_rows, workers=2))
    assert canonical_dumps(serial) == canonical_dumps(parallel)


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


def test_downed_access_link_stalls_its_flows_without_rerouting() -> None:
    # Down host-0-0-0's only access link before any flow starts and never
    # restore it: every flow touching that host must stall (the fluid tier
    # documents stall-don't-reroute), everyone else completes.
    fault = link_failure(0.0, "host-0-0-0", "edge-0-0")
    result = _tiny("mmptcp", FIDELITY_FLOW, fault_schedule=(fault,))
    specs = [flow.spec for flow in _flows_of(result)]
    touched, untouched = [], []
    for record, spec in zip(result.metrics.flows, specs):
        bucket = (
            touched
            if "host-0-0-0" in (spec.source, spec.destination)
            else untouched
        )
        bucket.append(record)
    assert touched, "the tiny workload should route through host-0-0-0"
    assert all(record.receiver_completion_time is None for record in touched)
    assert untouched and all(
        record.receiver_completion_time is not None for record in untouched
    )


def _engine_for(config) -> FlowLevelEngine:
    """The engine ``run_experiment`` would build for ``config``, not yet started."""
    from repro.experiments.runner import build_topology, build_workload

    streams = RandomStreams(config.seed)
    topology = build_topology(config, Simulator())
    workload = build_workload(config, topology, streams)
    return FlowLevelEngine(config, FluidFabric(topology), workload, streams)


def _flows_of(result):
    """Rebuild the engine flow list for ``result`` (same seed, same paths)."""
    return _engine_for(result.config).flows


def test_link_recovery_lets_stalled_flows_finish() -> None:
    down = link_failure(0.0, "host-0-0-0", "edge-0-0")
    recover = FaultEvent(
        time_s=0.5, kind=LINK_UP, node_a="host-0-0-0", node_b="edge-0-0"
    )
    result = _tiny("mmptcp", FIDELITY_FLOW, fault_schedule=(down, recover))
    assert all(
        record.receiver_completion_time is not None for record in result.metrics.flows
    )


def test_migrate_host_faults_are_rejected_at_flow_fidelity() -> None:
    fault = host_migration(0.1, "host-0-0-0", "edge-1-0")
    with pytest.raises(ValueError, match="packet fidelity"):
        _tiny("mmptcp", FIDELITY_FLOW, fault_schedule=(fault,))


def test_unknown_fault_link_is_rejected() -> None:
    fault = link_failure(0.1, "host-0-0-0", "no-such-node")
    with pytest.raises(ValueError, match="no link between"):
        _tiny("mmptcp", FIDELITY_FLOW, fault_schedule=(fault,))


# ---------------------------------------------------------------------------
# Scale and coalescing
# ---------------------------------------------------------------------------


def test_synchronized_incast_coalesces_recomputes() -> None:
    """N same-instant arrivals cost O(1) allocations, not O(N)."""
    config = tiny_config()
    simulator = Simulator()
    streams = RandomStreams(config.seed)
    from repro.experiments.runner import build_topology

    topology = build_topology(config, simulator)
    receiver = "host-0-0-0"
    senders = sorted(host.name for host in topology.hosts if host.name != receiver)
    flows = [
        FlowSpec(
            flow_id=index,
            source=sender,
            destination=receiver,
            size_bytes=20_000,
            start_time=0.01,
            protocol=PROTOCOL_TCP,
        )
        for index, sender in enumerate(senders)
    ]
    engine = FlowLevelEngine(
        config, FluidFabric(topology), Workload(flows=flows), streams
    )
    engine.start()
    simulator.run(until=config.horizon_s)
    metrics = engine.finalise(config.horizon_s)
    assert all(r.receiver_completion_time is not None for r in metrics.flows)
    # One recompute for the synchronized batch plus one per departure event
    # instant (identical transfers may finish staggered once shares shift).
    assert engine.recomputes <= 2 * len(flows)
    assert engine.recomputes < simulator.events_processed


def test_incast_fan_in_shares_fairly() -> None:
    config = tiny_config(protocol=PROTOCOL_MMPTCP).with_updates(fidelity=FIDELITY_FLOW)
    workload = build_scenario_workload(config, "incast", fan_in=8, response_bytes=50_000)
    result = run_experiment(config, workload=workload)
    fcts = [
        record.completion_time
        for record in result.metrics.flows
        if record.receiver_completion_time is not None
    ]
    assert len(fcts) == len(result.metrics.flows)
    # Symmetric senders through one bottleneck: fair sharing keeps the
    # spread of completion times tight.
    assert max(fcts) <= 1.5 * min(fcts)


def test_hundredfold_flow_scale_in_a_handful_of_events_per_flow() -> None:
    """The acceptance headline: ~100× the tiny packet workload's flow count,
    completed at flow-level fidelity with single-digit events per flow."""
    packet_flows = _tiny("mmptcp", FIDELITY_PACKET).workload_size
    config = tiny_config(protocol=PROTOCOL_MMPTCP).with_updates(
        fidelity=FIDELITY_FLOW,
        max_short_flows=packet_flows * 100,
        short_flow_rate_per_sender=1200.0,
        arrival_window_s=1.2,
    )
    result = run_experiment(config)
    assert result.workload_size >= packet_flows * 100
    events_per_flow = result.events_processed / result.workload_size
    assert events_per_flow < 10.0
    summary = result.metrics.summary_dict()
    assert summary["short_completion_rate"] > 0.95


# ---------------------------------------------------------------------------
# Bookkeeping: conservation and cost
# ---------------------------------------------------------------------------


def _busy_config(protocol: str):
    """~200 overlapping flows on the tiny fabric."""
    return tiny_config(
        protocol=protocol,
        fidelity=FIDELITY_FLOW,
        max_short_flows=200,
        short_flow_rate_per_sender=300.0,
    )


@pytest.mark.parametrize("protocol", ["tcp", "mptcp", "mmptcp"])
def test_link_integrals_account_for_every_delivered_bit(protocol) -> None:
    """What the links carried is what the flows delivered, and fits the links."""
    engine = _engine_for(_busy_config(protocol))
    horizon_s = 0.06  # arrivals run to ~55 ms: this cuts flows off mid-transfer
    engine.start()
    engine.simulator.run(until=horizon_s)
    engine.finalise(horizon_s)
    assert any(flow.completed_at is not None for flow in engine.flows)
    assert any(0.0 < flow.remaining_bits < flow.spec.size_bytes * 8.0 for flow in engine.flows)

    fabric = engine.fabric
    # Every subflow leaves its source over exactly one host-tail link.
    injected = 0.0
    for link, bits in engine._carried_bits.items():
        if fabric.layer_of[link] == "host":
            injected += bits
        assert bits <= fabric.original_rate_bps[link] * horizon_s * (1.0 + 1e-9)
    delivered = 0.0
    for flow in engine.flows:
        delivered += flow.spec.size_bytes * 8.0 - flow.remaining_bits
    assert injected == pytest.approx(delivered, rel=1e-9)


@pytest.mark.parametrize("protocol", ["tcp", "mmptcp"])
def test_solver_cost_per_event_is_a_handful_of_python_calls(protocol) -> None:
    """Exact and machine-independent: the solver's hot path makes no
    per-participant Python-level call (a helper, a generator frame), only
    per-solve and per-registration ones."""
    engine = _engine_for(_busy_config(protocol))
    engine.start()
    profiler = cProfile.Profile()
    profiler.enable()
    engine.simulator.run(until=engine.config.horizon_s)
    profiler.disable()

    solver_calls = sum(
        calls
        for (filename, _line, _name), (_cc, calls, *_rest) in pstats.Stats(profiler).stats.items()
        if filename.replace("\\", "/").endswith("repro/sim/fluid.py")
    )
    registered = sum(len(flow.subflow_paths) for flow in engine.flows if flow.started)
    removed = sum(
        len(flow.subflow_paths) for flow in engine.flows if flow.completed_at is not None
    )
    assert registered > 0 and removed == registered
    assert 0 < solver_calls <= 10 * (engine.recomputes + registered + removed)


# ---------------------------------------------------------------------------
# Artifact goldens
# ---------------------------------------------------------------------------

FLOW_ARTIFACTS_PATH = Path(__file__).parent / "golden" / "flow_artifacts.json"
ARTIFACT_PROTOCOLS = ("tcp", "mptcp", "mmptcp")


def _artifact_cell(scenario_name: str, protocol: str):
    """One registry scenario at flow fidelity on a ~60-flow tiny fabric.

    Arrivals are compressed into ~50 ms so that flows overlap (the solver
    sees contention, not one flow at a time) and the registry's faults at
    20-50 ms land on live flows.
    """
    scenario = get_scenario(scenario_name)
    base = tiny_config(
        protocol=protocol,
        fidelity=FIDELITY_FLOW,
        max_short_flows=56,
        short_flow_rate_per_sender=100.0,
    )
    return execute_spec(scenario_cell_spec(0, scenario, scenario.apply_to(base), {}))


def _artifact_entry(scenario_name: str, protocol: str) -> dict:
    try:
        result = _artifact_cell(scenario_name, protocol)
    except ValueError as error:
        return {"error": str(error)}
    stored = result_to_dict(result)
    # The config is the input, pinned by the store-key tests; hashing it
    # here would re-pin every entry on any config-schema change.
    del stored["config"]
    payload = canonical_dumps(stored)
    return {
        "events_processed": result.events_processed,
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }


def _artifact_keys():
    return [
        f"{scenario.name}/{protocol}"
        for scenario in all_scenarios()
        for protocol in ARTIFACT_PROTOCOLS
    ]


@pytest.mark.parametrize("key", _artifact_keys())
def test_flow_artifact_matches_golden(key) -> None:
    golden = json.loads(FLOW_ARTIFACTS_PATH.read_text())
    assert sorted(golden) == sorted(_artifact_keys())
    scenario_name, protocol = key.split("/")
    if "error" in golden[key]:
        # migrate_host scenarios: rejected up front, exactly as before.
        with pytest.raises(ValueError, match="packet fidelity"):
            _artifact_cell(scenario_name, protocol)
        return
    assert _artifact_entry(scenario_name, protocol) == golden[key], (
        f"{key}: the stored artifact changed; if intended, regenerate with "
        "`python tests/test_flowlevel.py`"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    entries = {key: _artifact_entry(*key.split("/")) for key in _artifact_keys()}
    FLOW_ARTIFACTS_PATH.write_text(dumps_deterministic(entries))
    print(f"wrote {FLOW_ARTIFACTS_PATH}")
