"""Declarative scenario specifications.

A :class:`ScenarioSpec` bundles everything that distinguishes one evaluation
condition from another — a topology variant (via config overrides such as
``core_oversubscription``), a fault schedule, and a workload shape — without
fixing the transport protocol or the fabric scale.  The scenario matrix
crosses specs with protocols, so the same fault hits TCP, MPTCP and MMPTCP
under the *same* seed-derived workload, which is what makes the per-scenario
deltas meaningful.

Specs are pure data: applying one to an :class:`ExperimentConfig` yields
another frozen, picklable config, so scenario runs fan out through
:class:`repro.experiments.parallel.SweepRunner` exactly like any other sweep
and stay byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Tuple

from repro.experiments.config import SCALES, ExperimentConfig, scaled_config
from repro.net.faults import FaultEvent
from repro.sim.units import kilobytes, megabits_per_second

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.traffic.workloads import Workload

#: Scales the scenario and campaign commands accept: the matrix-friendly
#: "tiny" (:func:`tiny_config`) plus the CLI trio.
SCENARIO_SCALES = ("tiny",) + SCALES

#: Workload shapes a scenario can request.
WORKLOAD_SHORT_LONG = "short_long"
WORKLOAD_INCAST = "incast"
WORKLOAD_KINDS = (WORKLOAD_SHORT_LONG, WORKLOAD_INCAST)


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation condition: topology variant + fault schedule + workload.

    Attributes:
        name: registry key (kebab-case by convention).
        description: one-line human description shown by ``scenarios list``.
        config_overrides: :class:`ExperimentConfig` field overrides that
            define the topology variant (e.g. ``{"core_oversubscription": 2.0}``).
            The transport protocol is *not* part of a scenario — the matrix
            supplies it.
        faults: timed :class:`FaultEvent`s applied during the run.  Fault
            endpoints name fabric nodes (``core-0``, ``agg-0-0``, ...), so a
            scenario with faults presumes a FatTree-family topology of
            sufficient arity.
        workload: ``short_long`` (the paper's mixed workload, built from the
            config) or ``incast`` (a synchronised fan-in burst).
        fan_in / response_bytes / receiver: incast parameters; ignored for
            ``short_long``.  ``receiver`` pins the burst target to a named
            host (``None`` = drawn from the seed), which lets a fault
            schedule aim a failure at the receiver's ingress links.
    """

    name: str
    description: str = ""
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    faults: Tuple[FaultEvent, ...] = ()
    workload: str = WORKLOAD_SHORT_LONG
    fan_in: int = 8
    response_bytes: int = kilobytes(70)
    receiver: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name cannot be empty")
        if self.workload not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.workload!r}; expected one of {WORKLOAD_KINDS}"
            )
        if not isinstance(self.faults, tuple):
            raise ValueError("faults must be a tuple of FaultEvent")
        if self.fan_in < 1:
            raise ValueError("fan_in must be at least 1")
        if self.response_bytes <= 0:
            raise ValueError("response_bytes must be positive")
        if "protocol" in self.config_overrides or "fault_schedule" in self.config_overrides:
            raise ValueError(
                "config_overrides cannot set 'protocol' (the matrix supplies it) "
                "or 'fault_schedule' (use the faults field)"
            )

    def apply_to(self, config: ExperimentConfig) -> ExperimentConfig:
        """The config that runs this scenario on top of ``config``."""
        return config.with_updates(fault_schedule=self.faults, **dict(self.config_overrides))

def build_scenario_workload(
    config: ExperimentConfig,
    workload_kind: str,
    fan_in: int = 8,
    response_bytes: int = kilobytes(70),
    receiver: Optional[str] = None,
) -> Optional[Workload]:
    """Materialise a scenario's workload inside a worker process.

    Module-level so :class:`repro.experiments.parallel.RunSpec` can carry it
    by reference.  Returns ``None`` for ``short_long`` — the experiment
    runner then builds the default mixed workload from the config, exactly as
    a plain run would.
    """
    from repro.experiments.incast_study import build_incast_workload_for

    if workload_kind == WORKLOAD_SHORT_LONG:
        return None
    if workload_kind == WORKLOAD_INCAST:
        return build_incast_workload_for(
            config, fan_in, response_bytes, config.protocol, receiver=receiver
        )
    raise ValueError(f"unknown workload kind {workload_kind!r}")


def tiny_config(seed: int = 20150817, **overrides) -> ExperimentConfig:
    """The 'tiny' scale used by scenario matrices and the CI smoke matrix.

    A 16-host k=4 FatTree with a dozen short flows: big enough that faults
    and over-subscription visibly move the metrics, small enough that a
    full scenario × transport matrix finishes in well under a minute.
    """
    defaults = dict(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.12,
        drain_time_s=1.2,
        short_flow_rate_per_sender=4.0,
        long_flow_size_bytes=500_000,
        max_short_flows=12,
        num_subflows=4,
        initial_cwnd_segments=2,
        seed=seed,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def scale_config(scale: str, seed: int) -> ExperimentConfig:
    """The base configuration for any of :data:`SCENARIO_SCALES`."""
    if scale == "tiny":
        return tiny_config(seed=seed)
    return scaled_config(scale, seed)


def reject_repeats(what: str, values: Sequence[Any]) -> None:
    """Refuse a grid axis that lists one value twice.

    The two cells would share one config and one store key, yet be simulated
    and reported twice.
    """
    for index, value in enumerate(values):
        if value in values[:index]:
            raise ValueError(f"{what} {value!r} is listed twice")
