"""Network-load sweeps.

"Effect of ... network loads" is one of the scenarios the paper's roadmap
says it is currently simulating.  The natural load knob in the Figure 1
workload is the Poisson arrival rate of short flows at each sender; this
module sweeps that rate for any set of protocols on an otherwise identical
configuration (same fabric, same seed, same long-flow background) and
reports how mean/tail completion times and RTO incidence degrade as the
offered load grows — the regime where MMPTCP's burst tolerance is supposed
to matter most.  Execution is :func:`repro.experiments.study.run_load_sweep`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.study import DEFAULT_LOAD_FACTORS
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP


def plan(
    config: ExperimentConfig,
    protocols: Sequence[str] = (PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
    load_factors: Sequence[float] = DEFAULT_LOAD_FACTORS,
) -> List[RunSpec]:
    """One point per (load factor, protocol), factor-major.

    Every point uses the same seed, so the permutation matrix and the long-
    flow background are identical across protocols at a given load factor;
    only the arrival rate (and the protocol under test) changes.
    """
    if not protocols:
        raise ValueError("need at least one protocol")
    if any(factor <= 0 for factor in load_factors):
        raise ValueError("load factors must be positive")
    specs: List[RunSpec] = []
    for factor in load_factors:
        rate = config.short_flow_rate_per_sender * factor
        for protocol in protocols:
            specs.append(
                RunSpec(
                    index=len(specs),
                    config=config.with_updates(
                        protocol=protocol, short_flow_rate_per_sender=rate
                    ),
                    tag={"protocol": protocol, "load_factor": factor, "arrival_rate": rate},
                )
            )
    return specs


def points_by_protocol(points: Sequence[Any]) -> Dict[str, List[Any]]:
    """Group sweep points by protocol, each group ordered by load factor."""
    grouped: Dict[str, List[Any]] = {}
    for point in points:
        grouped.setdefault(point.protocol, []).append(point)
    for series in grouped.values():
        series.sort(key=lambda point: point.load_factor)
    return grouped
