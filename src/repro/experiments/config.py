"""Experiment configuration.

A single :class:`ExperimentConfig` captures everything needed to reproduce a
run: the fabric, the link/queue parameters, the workload, the transport
protocol under test and its options, and the random seed.  Its defaults
keep the paper's structural parameters (4:1 over-subscribed FatTree,
one-third long-flow senders, 70 KB short flows, Poisson arrivals,
permutation matrix, 200 ms min RTO) on a fabric small enough for pure-Python
packet simulation, which is orders of magnitude slower than the authors'
ns-3 setup.  :func:`scaled_config` names the scales the CLI offers, and
:func:`paper_scale` is the full 512-server fabric of the paper, for when
simulation time is no object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.net.faults import FaultEvent
from repro.sim.units import (
    gigabits_per_second,
    kilobytes,
    megabits_per_second,
    megabytes,
    microseconds,
    milliseconds,
)
from repro.traffic.flowspec import ALL_PROTOCOLS, PROTOCOL_MPTCP

TOPOLOGY_FATTREE = "fattree"
TOPOLOGY_DUALHOMED = "dualhomed"
TOPOLOGIES = (TOPOLOGY_FATTREE, TOPOLOGY_DUALHOMED)

SWITCHING_DATA_VOLUME = "data_volume"
SWITCHING_CONGESTION = "congestion_event"
SWITCHING_HYBRID = "hybrid"
SWITCHING_NEVER = "never"
SWITCHING_POLICIES = (
    SWITCHING_DATA_VOLUME, SWITCHING_CONGESTION, SWITCHING_HYBRID, SWITCHING_NEVER
)

REORDERING_STATIC = "static"
REORDERING_TOPOLOGY = "topology_informed"
REORDERING_ADAPTIVE = "adaptive"
REORDERING_POLICIES = (REORDERING_STATIC, REORDERING_TOPOLOGY, REORDERING_ADAPTIVE)

#: Simulation fidelity tiers.  ``packet`` is the full per-segment engine;
#: ``flow`` is the fluid bandwidth-sharing tier (:mod:`repro.flowlevel`)
#: that only recomputes rates on arrival/departure/fault events and buys
#: ~100× flow-count headroom at documented accuracy tolerances.
FIDELITY_PACKET = "packet"
FIDELITY_FLOW = "flow"
FIDELITIES = (FIDELITY_PACKET, FIDELITY_FLOW)

#: The legal values of every choice field — the one declaration that
#: :class:`ExperimentConfig` validates against and the CLI offers as
#: ``choices``.
CHOICES = {
    "topology": TOPOLOGIES,
    "protocol": ALL_PROTOCOLS,
    "switching_policy": SWITCHING_POLICIES,
    "reordering_policy": REORDERING_POLICIES,
    "fidelity": FIDELITIES,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation run."""

    # Fabric ---------------------------------------------------------------
    topology: str = TOPOLOGY_FATTREE
    fattree_k: int = 4
    hosts_per_edge: Optional[int] = 8  # k=4 with 8 hosts/edge -> 4:1 over-subscription
    link_rate_bps: float = megabits_per_second(100)
    core_oversubscription: float = 1.0
    link_delay_s: float = microseconds(20)
    queue_capacity_packets: int = 100

    # Workload ---------------------------------------------------------------
    long_flow_fraction: float = 1.0 / 3.0
    short_flow_size_bytes: int = kilobytes(70)
    long_flow_size_bytes: int = megabytes(20)
    short_flow_rate_per_sender: float = 8.0
    arrival_window_s: float = 0.3
    max_short_flows: Optional[int] = None
    drain_time_s: float = 1.5

    # Transport ---------------------------------------------------------------
    protocol: str = PROTOCOL_MPTCP
    num_subflows: int = 8
    mss_bytes: int = 1400
    initial_cwnd_segments: int = 4
    min_rto_s: float = milliseconds(200)
    dupack_threshold: int = 3
    switching_policy: str = SWITCHING_DATA_VOLUME
    switching_threshold_bytes: int = 100 * 1400
    reordering_policy: str = REORDERING_TOPOLOGY

    # Faults ---------------------------------------------------------------
    #: Timed fabric changes applied during the run (see
    #: :mod:`repro.net.faults`): link failures / recoveries / degradations
    #: and ``migrate_host`` endpoint re-homing events.  A tuple of frozen events so the config stays
    #: hashable and picklable for parallel sweeps — and so every fault
    #: (migrations included) participates in store keys automatically.
    fault_schedule: Tuple[FaultEvent, ...] = ()

    # Run control ---------------------------------------------------------------
    seed: int = 1
    #: Simulation fidelity: ``packet`` (per-segment engine) or ``flow`` (the
    #: fluid bandwidth-sharing tier).  A first-class config field so it
    #: participates in store keys and campaign sweep axes automatically.
    fidelity: str = FIDELITY_PACKET

    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        if self.fattree_k < 2 or self.fattree_k % 2:
            raise ValueError("fattree_k must be an even integer >= 2")
        if self.arrival_window_s <= 0 or self.drain_time_s < 0:
            raise ValueError("arrival_window_s must be > 0 and drain_time_s >= 0")
        if self.num_subflows < 1:
            raise ValueError("num_subflows must be at least 1")
        if self.max_short_flows is not None and self.max_short_flows < 0:
            raise ValueError("max_short_flows must be >= 0")
        if self.core_oversubscription <= 0:
            raise ValueError("core_oversubscription must be positive")
        for name, legal in CHOICES.items():
            value = getattr(self, name)
            if value not in legal:
                raise ValueError(
                    f"unknown {name.replace('_', ' ')} {value!r}; expected one of {legal}"
                )
        if not isinstance(self.fault_schedule, tuple):
            # Lists pickle fine but break hashing/equality of the frozen
            # config; normalise early with a clear message instead.
            raise ValueError("fault_schedule must be a tuple of FaultEvent")

    @property
    def horizon_s(self) -> float:
        """Total simulated time: arrivals plus drain."""
        return self.arrival_window_s + self.drain_time_s

    def with_protocol(
        self, protocol: str, num_subflows: Optional[int] = None
    ) -> "ExperimentConfig":
        """A copy of this config running a different protocol (same workload/seed)."""
        updates = {"protocol": protocol}
        if num_subflows is not None:
            updates["num_subflows"] = num_subflows
        return replace(self, **updates)

    def with_updates(self, **updates) -> "ExperimentConfig":
        """A copy of this config with arbitrary field overrides."""
        return replace(self, **updates)


#: Named scales shared by the CLI and the campaign layer ("tiny", the
#: scenario-matrix scale, lives in :func:`repro.scenarios.spec.tiny_config`).
SCALES = ("quick", "large", "paper")


def scaled_config(scale: str, seed: int) -> ExperimentConfig:
    """The base configuration for one of the named scales in :data:`SCALES`.

    ``quick`` is the CI-friendly k=4 fabric, ``large`` the k=8 variant with a
    longer arrival window, ``paper`` the full :func:`paper_scale` setup.
    """
    if scale == "paper":
        return paper_scale(seed=seed)
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    config = ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=8,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.25,
        drain_time_s=1.0,
        short_flow_rate_per_sender=7.0,
        long_flow_size_bytes=3_000_000,
        max_short_flows=120,
        initial_cwnd_segments=2,
        seed=seed,
    )
    if scale == "large":
        config = config.with_updates(
            fattree_k=8,
            arrival_window_s=0.5,
            short_flow_rate_per_sender=10.0,
            long_flow_size_bytes=10_000_000,
            max_short_flows=600,
        )
    return config


def paper_scale(**overrides) -> ExperimentConfig:
    """The paper's full-size setup: 512 servers, 4:1 over-subscription, 1 Gbps links.

    Expect runs at this scale to take hours in pure Python.
    """
    defaults = dict(
        fattree_k=8,
        hosts_per_edge=16,
        link_rate_bps=gigabits_per_second(1),
        short_flow_rate_per_sender=20.0,
        arrival_window_s=1.0,
        long_flow_size_bytes=megabytes(200),
        drain_time_s=3.0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)
