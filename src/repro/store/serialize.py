"""Lossless ``ExperimentResult`` ⇄ JSON payload conversion.

Every dataclass that makes up a result — config, per-flow records, the
network snapshot — is converted field by field via :func:`dataclasses.fields`,
so a newly added field automatically appears in both directions (and, via
the config dict, in the cache key).  The only value that is *not* preserved
is :attr:`ExperimentResult.wallclock_s`: it is real elapsed time, the one
field the determinism contract of :mod:`repro.experiments.parallel` already
exempts, and storing it would make otherwise identical artifacts differ
byte-wise.  It is normalised to ``0.0`` on the way in.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict

from repro.experiments.config import ExperimentConfig
from repro.metrics.collector import ExperimentMetrics, ExperimentResult
from repro.metrics.records import FlowRecord
from repro.net.faults import FaultEvent
from repro.net.monitor import LayerLossStats, NetworkSnapshot


def _dataclass_to_dict(value: Any) -> Dict[str, Any]:
    """A flat field dict in declared field order (no recursion)."""
    return {spec.name: getattr(value, spec.name) for spec in fields(value)}


# ---------------------------------------------------------------------------
# ExperimentConfig
# ---------------------------------------------------------------------------


def config_to_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """The full config as JSON-ready primitives, fault schedule included."""
    payload = _dataclass_to_dict(config)
    payload["fault_schedule"] = [
        _dataclass_to_dict(event) for event in config.fault_schedule
    ]
    return payload


def config_from_dict(payload: Dict[str, Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict` output."""
    data = dict(payload)
    data["fault_schedule"] = tuple(
        FaultEvent(**event) for event in data.get("fault_schedule", [])
    )
    return ExperimentConfig(**data)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _snapshot_to_dict(snapshot: NetworkSnapshot) -> Dict[str, Any]:
    payload = _dataclass_to_dict(snapshot)
    payload["layer_loss"] = {
        layer: _dataclass_to_dict(stats) for layer, stats in snapshot.layer_loss.items()
    }
    return payload


def _snapshot_from_dict(payload: Dict[str, Any]) -> NetworkSnapshot:
    data = dict(payload)
    data["layer_loss"] = {
        layer: LayerLossStats(**stats) for layer, stats in data.get("layer_loss", {}).items()
    }
    return NetworkSnapshot(**data)


def metrics_to_dict(metrics: ExperimentMetrics) -> Dict[str, Any]:
    """Flow records + network snapshot as JSON-ready primitives."""
    return {
        "duration_s": metrics.duration_s,
        "flows": [_dataclass_to_dict(record) for record in metrics.flows],
        "network": None if metrics.network is None else _snapshot_to_dict(metrics.network),
    }


def metrics_from_dict(payload: Dict[str, Any]) -> ExperimentMetrics:
    """Rebuild :class:`ExperimentMetrics` from :func:`metrics_to_dict` output."""
    network = payload.get("network")
    return ExperimentMetrics(
        flows=[FlowRecord(**record) for record in payload.get("flows", [])],
        network=None if network is None else _snapshot_from_dict(network),
        duration_s=payload["duration_s"],
    )


# ---------------------------------------------------------------------------
# ExperimentResult
# ---------------------------------------------------------------------------


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """The storable payload of one result (wall-clock normalised to 0.0)."""
    return {
        "config": config_to_dict(result.config),
        "metrics": metrics_to_dict(result.metrics),
        "events_processed": result.events_processed,
        "wallclock_s": 0.0,
        "workload_size": result.workload_size,
    }


def result_from_dict(payload: Dict[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` output."""
    return ExperimentResult(
        config=config_from_dict(payload["config"]),
        metrics=metrics_from_dict(payload["metrics"]),
        events_processed=payload["events_processed"],
        wallclock_s=payload.get("wallclock_s", 0.0),
        workload_size=payload["workload_size"],
    )
