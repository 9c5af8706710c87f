"""Declarative campaign specifications.

A :class:`CampaignSpec` is pure data describing a full evaluation grid:

* ``scenarios`` — registered :class:`~repro.scenarios.spec.ScenarioSpec`
  names (topology variant + fault schedule + workload shape),
* ``protocols`` — the transports each scenario is crossed with,
* ``sweeps`` — ordered config-field value lists whose cross-product adds
  parameter-sweep axes (e.g. ``num_subflows`` × ``queue_capacity_packets``),
* ``replications`` — seeded repetitions per cell, with independent seeds
  derived via :func:`repro.experiments.parallel.seeded_replications`.

Specs load from plain JSON dictionaries (``from_dict``/``from_file``), so
a campaign can live in version control next to the report it produces.  Cell enumeration order — scenario, then protocol, then
sweep point, then replication — is part of the spec's contract; it fixes
cell indices, report row order and therefore report bytes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.experiments.config import ExperimentConfig
from repro.scenarios.spec import SCENARIO_SCALES, reject_repeats, scale_config
from repro.traffic.flowspec import ALL_PROTOCOLS

#: Keys accepted in a campaign spec document.
_SPEC_FIELDS = (
    "name",
    "scenarios",
    "protocols",
    "replications",
    "scale",
    "seed",
    "sweeps",
    "config_overrides",
)


def _pairs(
    mapping: Union[Mapping[str, Any], Sequence[Tuple[str, Any]]],
) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a dict (or pair sequence) to an order-preserving pair tuple."""
    if isinstance(mapping, Mapping):
        return tuple((str(key), value) for key, value in mapping.items())
    return tuple((str(key), value) for key, value in mapping)


@dataclass(frozen=True)
class CampaignSpec:
    """One declared campaign: the grid, the scale, and the root seed.

    Attributes:
        name: label used in reports and artifact metadata.
        scenarios: registered scenario names, in report order.
        protocols: transport protocols, in report order.
        replications: seeded repetitions per (scenario, protocol, sweep
            point) cell.  Replication ``i`` is always seeded by the
            hash-derived spawn key ``(campaign seed, "replication", i)`` —
            for ``n == 1`` too — so raising the count later leaves existing
            cells' seeds and cache keys unchanged: an extended campaign
            re-simulates only the new replications.
        scale: one of :data:`repro.scenarios.spec.SCENARIO_SCALES` (base
            fabric/workload size).
        seed: the campaign's root seed.
        sweeps: ordered ``(config_field, (value, ...))`` axes; the cell grid
            crosses every combination in declaration order.
        config_overrides: ordered ``(config_field, value)`` pairs applied to
            the base config before scenarios/sweeps (shrink a fabric, pin a
            queue kind, ...).
    """

    name: str
    scenarios: Tuple[str, ...]
    protocols: Tuple[str, ...]
    replications: int = 1
    scale: str = "tiny"
    seed: int = 20150817
    sweeps: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    config_overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name cannot be empty")
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        if not self.protocols:
            raise ValueError("campaign needs at least one protocol")
        for protocol in self.protocols:
            if protocol not in ALL_PROTOCOLS:
                raise ValueError(
                    f"unknown protocol {protocol!r}; expected one of {ALL_PROTOCOLS}"
                )
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.scale not in SCENARIO_SCALES:
            raise ValueError(f"unknown scale {self.scale!r}; expected one of {SCENARIO_SCALES}")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "sweeps", tuple(
            (str(name), tuple(values)) for name, values in self.sweeps
        ))
        object.__setattr__(self, "config_overrides", _pairs(self.config_overrides))
        reject_repeats("scenario", self.scenarios)
        reject_repeats("protocol", self.protocols)
        for name, values in self.sweeps:
            if not values:
                raise ValueError(f"sweep axis {name!r} has no values")
            reject_repeats(f"sweep axis {name!r} value", values)
        reserved = {"protocol", "fault_schedule", "seed"}
        names = [name for name, _ in self.sweeps + self.config_overrides]
        for name in names:
            if name in reserved:
                raise ValueError(
                    f"config field {name!r} is campaign-managed and cannot be "
                    "swept or overridden (protocols/scenarios/replications own it)"
                )
        unknown = sorted(set(names) - {field.name for field in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config field(s) {unknown} in sweeps/config_overrides")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def sweep_points(self) -> List[Dict[str, Any]]:
        """Every sweep-axis combination, in declaration order.

        With no sweep axes this is a single empty point, so the cell grid
        is always ``scenarios × protocols × sweep_points × replications``.
        """
        if not self.sweeps:
            return [{}]
        names = [name for name, _ in self.sweeps]
        value_lists = [values for _, values in self.sweeps]
        return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]

    def cell_count(self) -> int:
        """Total number of cells the campaign declares."""
        return (
            len(self.scenarios)
            * len(self.protocols)
            * len(self.sweep_points())
            * self.replications
        )

    # ------------------------------------------------------------------
    # (De)serialisation
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from a JSON document, rejecting unknown keys."""
        unknown = sorted(set(document) - set(_SPEC_FIELDS))
        if unknown:
            raise ValueError(f"unknown campaign spec keys: {unknown}")
        missing = [key for key in ("name", "scenarios", "protocols") if key not in document]
        if missing:
            raise ValueError(f"campaign spec is missing required keys: {missing}")
        sweeps = document.get("sweeps", {})
        if isinstance(sweeps, Mapping):
            sweeps = tuple((name, tuple(values)) for name, values in sweeps.items())
        return cls(
            name=document["name"],
            scenarios=tuple(document["scenarios"]),
            protocols=tuple(document["protocols"]),
            replications=int(document.get("replications", 1)),
            scale=document.get("scale", "tiny"),
            seed=int(document.get("seed", 20150817)),
            sweeps=sweeps,
            config_overrides=_pairs(document.get("config_overrides", {})),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def campaign_base_config(spec: CampaignSpec) -> ExperimentConfig:
    """The base :class:`ExperimentConfig` a campaign's cells derive from."""
    config = scale_config(spec.scale, spec.seed)
    overrides = dict(spec.config_overrides)
    return config.with_updates(**overrides) if overrides else config
