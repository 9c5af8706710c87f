"""Scenario registry.

Scenarios are registered by name so experiments, the CLI and CI jobs can
refer to conditions declaratively (``scenarios run core-link-failure``)
instead of hand-assembling fault schedules.  The built-in catalogue below
covers the regimes the paper's healthy-fabric figures leave untested: failed
links, flapping links, degraded capacity, asymmetric (over-subscribed /
heterogeneous-speed) fat-trees, a live VM migration and a rolling link
drain.

All built-in fault endpoints exist on any FatTree-family fabric with
``k >= 4`` (``core-0``/``core-1``, ``agg-0-0``, ``edge-0-0``), which every
named scale in this repository satisfies.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.faults import degradation, host_migration, link_failure, link_flap
from repro.scenarios.spec import WORKLOAD_INCAST, ScenarioSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


class UnknownScenarioError(KeyError):
    """A scenario name the registry does not hold; ``str()`` is the bare message."""

    def __str__(self) -> str:
        return self.args[0]


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry (and return it, for decorator-free chaining)."""
    if not overwrite and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name, with a helpful error listing what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names()) or "(none)"
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def all_scenarios() -> List[ScenarioSpec]:
    """All registered specs, in registration order."""
    return list(_REGISTRY.values())


# ---------------------------------------------------------------------------
# Built-in catalogue
# ---------------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="baseline",
        description="Healthy, symmetric fat-tree; the paper's evaluation condition.",
    )
)

register_scenario(
    ScenarioSpec(
        name="core-link-failure",
        description="A core<->aggregation link fails at t=30 ms and never recovers.",
        faults=(link_failure(0.03, "core-0", "agg-0-0"),),
    )
)

register_scenario(
    ScenarioSpec(
        name="agg-edge-flap",
        description="An aggregation<->edge link goes down at t=30 ms and returns at t=150 ms.",
        faults=link_flap(0.03, 0.15, "edge-0-0", "agg-0-0"),
    )
)

register_scenario(
    ScenarioSpec(
        name="degraded-core",
        description="A core uplink drops to quarter speed at t=20 ms, restored at t=250 ms.",
        faults=degradation(0.02, "core-0", "agg-0-0", factor=0.25, restore_s=0.25),
    )
)

register_scenario(
    ScenarioSpec(
        name="oversubscribed-core",
        description="Core links at half the edge speed: a 2:1 core:agg over-subscription.",
        config_overrides={"core_oversubscription": 2.0},
    )
)

register_scenario(
    ScenarioSpec(
        name="asymmetric-fabric",
        description=(
            "2:1 core over-subscription plus one core uplink permanently at half of "
            "that — heterogeneous path capacities end to end."
        ),
        config_overrides={"core_oversubscription": 2.0},
        faults=degradation(0.0, "core-1", "agg-0-0", factor=0.5),
    )
)

# The two incast scenarios pin the burst target to the same host so they are
# a paired comparison: same senders, same responses, with and without a
# failure on the receiver's ingress.  Failing one of edge-0-0's two uplinks
# halves the receiver-side path diversity mid-burst — a failure the
# equal-cost core has no way to hide.
register_scenario(
    ScenarioSpec(
        name="incast-burst",
        description="A synchronised 8-to-1 fan-in of 70 KB responses on a healthy fabric.",
        workload=WORKLOAD_INCAST,
        fan_in=8,
        receiver="host-0-0-0",
    )
)

register_scenario(
    ScenarioSpec(
        name="incast-link-failure",
        description=(
            "The 8-to-1 incast burst with one of the receiver's edge uplinks "
            "failing mid-burst."
        ),
        workload=WORKLOAD_INCAST,
        fan_in=8,
        receiver="host-0-0-0",
        faults=(link_failure(0.02, "edge-0-0", "agg-0-0"),),
    )
)

# A live migration: host-0-0-0 drops off the fabric and comes back at
# another edge under the same address.  Every transport must ride out the
# blackout through its retransmission timer.
register_scenario(
    ScenarioSpec(
        name="vm-migration",
        description=(
            "host-0-0-0 live-migrates to edge-0-1 at t=40 ms with a 60 ms "
            "blackout window; its address is preserved."
        ),
        faults=(host_migration(0.04, "host-0-0-0", "edge-0-1", downtime_s=0.06),),
    )
)

# A rolling drain halves a core uplink's rate every 30 ms, three times, then
# takes it down; the second uplink starts 30 ms after the first.  The steps
# are listed link by link, so the ties at 50, 80 and 110 ms apply core-0's
# step first.
register_scenario(
    ScenarioSpec(
        name="rolling-drain",
        description=(
            "agg-0-0's two core uplinks are drained in a staggered rollout "
            "(gradual degrade staircase, then down), leaving pod 0 on agg-0-1."
        ),
        faults=(
            *degradation(0.02, "core-0", "agg-0-0", factor=0.5),
            *degradation(0.05, "core-0", "agg-0-0", factor=0.25),
            *degradation(0.08, "core-0", "agg-0-0", factor=0.125),
            link_failure(0.11, "core-0", "agg-0-0"),
            *degradation(0.05, "core-1", "agg-0-0", factor=0.5),
            *degradation(0.08, "core-1", "agg-0-0", factor=0.25),
            *degradation(0.11, "core-1", "agg-0-0", factor=0.125),
            link_failure(0.14, "core-1", "agg-0-0"),
        ),
    )
)
