"""Co-existence / fairness experiments.

Section 3 of the paper states that "in-depth investigation of how MMPTCP
shares network resources with TCP and MPTCP is part of our current work"
and that early results suggest it can co-exist in harmony with them.  This
module provides that experiment: a single fabric carrying TCP, MPTCP and
MMPTCP traffic *simultaneously*, with per-protocol completion-time and
throughput statistics plus Jain's fairness index over the long flows.

The sender population is partitioned into one block per protocol; each block
runs the paper's short/long mix (permutation matrix inside the block,
one-third long senders, Poisson short-flow arrivals), so every protocol
faces the same offered load and they all compete for the same core links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.study import DEFAULT_PROTOCOL_MIX
from repro.metrics.collector import ExperimentResult
from repro.metrics.records import FlowRecord
from repro.metrics.stats import DistributionSummary, jains_fairness_index, summarize
from repro.sim.randomness import RandomStreams
from repro.traffic.workloads import ShortLongWorkloadParams, Workload, build_short_long_workload


@dataclass
class ProtocolShare:
    """Per-protocol statistics extracted from a mixed-protocol run."""

    protocol: str
    short_flow_count: int
    long_flow_count: int
    short_fct: DistributionSummary
    rto_incidence: float
    completion_rate: float
    mean_long_throughput_bps: float
    long_throughputs_bps: List[float] = field(default_factory=list)


@dataclass
class CoexistenceResult:
    """Outcome of one mixed-protocol experiment."""

    result: ExperimentResult
    shares: Dict[str, ProtocolShare]

    @classmethod
    def from_result(
        cls, result: ExperimentResult, protocols: Sequence[str]
    ) -> "CoexistenceResult":
        """Split one mixed-protocol run into its per-protocol shares."""
        shares = {
            protocol: _share_for(
                protocol,
                [record for record in result.metrics.flows if record.protocol == protocol],
                result.config.horizon_s,
            )
            for protocol in protocols
        }
        return cls(result=result, shares=shares)

    def fairness_index(self) -> float:
        """Jain's index over every long flow's throughput, regardless of protocol."""
        throughputs = [
            value for share in self.shares.values() for value in share.long_throughputs_bps
        ]
        return jains_fairness_index(throughputs)

    def throughput_ratio(self, protocol_a: str, protocol_b: str) -> float:
        """Mean long-flow throughput of ``protocol_a`` divided by ``protocol_b``'s."""
        a = self.shares[protocol_a].mean_long_throughput_bps
        b = self.shares[protocol_b].mean_long_throughput_bps
        if b <= 0:
            return float("inf") if a > 0 else 1.0
        return a / b

    def harmony(self, tolerance: float = 0.5) -> bool:
        """True when every pair of protocols gets long-flow throughput within ``tolerance``.

        ``tolerance`` is the maximum allowed relative difference between the
        best- and worst-treated protocol (0.5 = the worst gets at least half
        of the best), the loose notion of "co-existing in harmony" the
        paper's early results claim.
        """
        means = [
            share.mean_long_throughput_bps
            for share in self.shares.values()
            if share.long_flow_count > 0
        ]
        if len(means) < 2:
            return True
        best = max(means)
        worst = min(means)
        if best <= 0:
            return True
        return (best - worst) / best <= tolerance


def build_mixed_protocol_workload(
    host_names: Sequence[str],
    params: ShortLongWorkloadParams,
    rng: random.Random,
    protocols: Sequence[str] = DEFAULT_PROTOCOL_MIX,
) -> Workload:
    """Partition the hosts into one block per protocol and build each block's mix.

    Each block is an independent permutation matrix carrying the paper's
    short/long workload under its own transport protocol; the blocks share
    every aggregation and core link, which is where the fairness question
    lives.
    """
    if len(protocols) == 0:
        raise ValueError("need at least one protocol")
    if len(host_names) < 2 * len(protocols):
        raise ValueError("need at least two hosts per protocol block")
    shuffled = list(host_names)
    rng.shuffle(shuffled)
    block_size = len(shuffled) // len(protocols)
    workload = Workload()
    next_flow_id = 1
    for index, protocol in enumerate(protocols):
        start = index * block_size
        end = start + block_size if index < len(protocols) - 1 else len(shuffled)
        block_hosts = shuffled[start:end]
        block = build_short_long_workload(
            block_hosts, replace(params, protocol=protocol), rng, first_flow_id=next_flow_id
        )
        workload.flows.extend(block.flows)
        next_flow_id += len(block.flows)
    workload.flows.sort(key=lambda flow: flow.start_time)
    return workload


def _share_for(protocol: str, records: Sequence[FlowRecord], horizon_s: float) -> ProtocolShare:
    shorts = [record for record in records if not record.is_long]
    longs = [record for record in records if record.is_long]
    completed = [record for record in shorts if record.completed]
    fct_ms = [
        record.completion_time_ms for record in completed if record.completion_time_ms is not None
    ]
    throughputs = [record.throughput_bps(horizon_s) for record in longs]
    # Accumulated left to right: builtin sum() compensates float additions
    # from CPython 3.12 on, and pinned outputs hold the bits.
    total_throughput = 0.0
    for throughput in throughputs:
        total_throughput += throughput
    return ProtocolShare(
        protocol=protocol,
        short_flow_count=len(shorts),
        long_flow_count=len(longs),
        short_fct=summarize(fct_ms),
        rto_incidence=(
            sum(1 for record in shorts if record.experienced_rto) / len(shorts) if shorts else 0.0
        ),
        completion_rate=len(completed) / len(shorts) if shorts else 0.0,
        mean_long_throughput_bps=(
            total_throughput / len(throughputs) if throughputs else 0.0
        ),
        long_throughputs_bps=throughputs,
    )


def build_coexistence_workload_for(
    config: ExperimentConfig, protocols: Sequence[str] = DEFAULT_PROTOCOL_MIX
) -> Workload:
    """The mixed-protocol workload over the fabric ``config`` describes.

    The per-protocol workload parameters (flow sizes, arrival rate, long-flow
    fraction) are taken from ``config`` exactly as in a single-protocol run;
    only the transport protocol varies across the sender blocks.
    """
    from repro.experiments.runner import fabric_host_names, workload_params

    return build_mixed_protocol_workload(
        fabric_host_names(config),
        workload_params(config),
        RandomStreams(config.seed).stream("coexistence-workload"),
        protocols=protocols,
    )


def plan(
    config: ExperimentConfig, protocols: Sequence[str] = DEFAULT_PROTOCOL_MIX
) -> List[RunSpec]:
    """The single run in which every protocol shares one fabric."""
    protocols = tuple(protocols)
    return [
        RunSpec(
            index=0,
            config=config,
            workload_factory=build_coexistence_workload_for,
            workload_args=(protocols,),
            tag={"protocols": protocols},
        )
    ]


def rows(spec: RunSpec, result: ExperimentResult) -> List[Dict[str, object]]:
    """One row per protocol of the shared run."""
    return coexistence_rows(CoexistenceResult.from_result(result, spec.tag["protocols"]))


def coexistence_rows(outcome: CoexistenceResult) -> List[Dict[str, object]]:
    """Flat per-protocol rows for table rendering / CSV export."""
    return [
        {
            "protocol": protocol,
            "short_flows": share.short_flow_count,
            "long_flows": share.long_flow_count,
            "mean_fct_ms": share.short_fct.mean,
            "std_fct_ms": share.short_fct.std,
            "p99_fct_ms": share.short_fct.p99,
            "rto_incidence": share.rto_incidence,
            "completion_rate": share.completion_rate,
            "mean_long_throughput_mbps": share.mean_long_throughput_bps / 1e6,
        }
        for protocol, share in outcome.shares.items()
    ]
