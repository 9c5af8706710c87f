"""Hotspot experiments.

"Effect of hotspots" is another scenario on the paper's roadmap: a fraction
of the receivers attracts a disproportionate share of the traffic, which
concentrates load on a few edge links and — for single-path transports — on
a few core paths.  This module runs the paper's short/long mix over a
hotspot-skewed matrix for any set of protocols and reports the same
statistics as the Figure 1 / Section 3 experiments, so the MPTCP-vs-MMPTCP
comparison can be repeated under skew (execution:
:func:`repro.experiments.study.run_study`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.sim.randomness import RandomStreams
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP
from repro.traffic.workloads import Workload, build_hotspot_workload


def build_hotspot_workload_for(
    config: ExperimentConfig,
    hotspot_fraction: float,
    load_fraction: float,
    protocol: str,
) -> Workload:
    """Materialise the hotspot workload for ``config`` under ``protocol``.

    The random stream is derived only from the configuration seed, so every
    protocol sees the same hotspots, the same senders and the same arrival
    times — the comparison is paired exactly like the Figure 1 benchmarks.
    """
    from repro.experiments.runner import fabric_host_names, workload_params

    return build_hotspot_workload(
        fabric_host_names(config),
        workload_params(config, protocol),
        RandomStreams(config.seed).stream("hotspot-workload"),
        hotspot_fraction=hotspot_fraction,
        load_fraction=load_fraction,
    )


def plan(
    config: ExperimentConfig,
    protocols: Sequence[str] = (PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
    hotspot_fraction: float = 0.125,
    load_fraction: float = 0.5,
) -> List[RunSpec]:
    """Each protocol over the same hotspot-skewed workload."""
    if not protocols:
        raise ValueError("need at least one protocol")
    return [
        RunSpec(
            index=index,
            config=config.with_protocol(protocol),
            workload_factory=build_hotspot_workload_for,
            workload_args=(hotspot_fraction, load_fraction, protocol),
            tag={
                "protocol": protocol,
                "hotspot_fraction": hotspot_fraction,
                "load_fraction": load_fraction,
            },
        )
        for index, protocol in enumerate(protocols)
    ]
