"""Deadline-miss study.

The paper motivates MMPTCP with short flows that "commonly come with strict
deadlines regarding their completion time" and positions itself against
deadline-aware single-path transports (DCTCP, D2TCP, D3) that need
application-layer deadline information.  This experiment quantifies that
trade-off: it assigns slack-based deadlines to every short flow, runs the
same workload under a configurable set of protocols (including the
deadline-aware D2TCP baseline, which actually consumes the deadlines) and
reports the deadline miss rate, completion-time statistics and RTO incidence
per protocol (execution: :func:`repro.experiments.study.run_study`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.config import QUEUE_ECN, ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.study import DEFAULT_DEADLINE_PROTOCOLS
from repro.metrics.collector import ExperimentResult
from repro.sim.randomness import RandomStreams
from repro.traffic.deadlines import DeadlineParams, deadline_miss_rate, slack_deadlines
from repro.traffic.flowspec import PROTOCOL_D2TCP, PROTOCOL_DCTCP
from repro.traffic.workloads import Workload, build_short_long_workload

#: ECN-dependent protocols need marking switches; everything else works on
#: plain drop-tail queues.
ECN_PROTOCOLS = (PROTOCOL_DCTCP, PROTOCOL_D2TCP)


def build_deadline_workload_for(
    config: ExperimentConfig, protocol: str, slack_factor: float
) -> Workload:
    """The paper's short/long mix with slack deadlines attached to short flows.

    ``DeadlineParams.long_flows_have_deadlines`` keeps its ``False`` default,
    so only short flows carry a deadline (and count towards the miss rate).
    """
    from repro.experiments.runner import fabric_host_names, workload_params

    workload = build_short_long_workload(
        fabric_host_names(config),
        workload_params(config, protocol),
        RandomStreams(config.seed).stream("workload"),
    )
    deadline_params = DeadlineParams(
        slack_factor=slack_factor,
        link_rate_bps=config.link_rate_bps,
        base_rtt_s=8 * config.link_delay_s,
    )
    slack_deadlines(workload.flows, deadline_params)
    return workload


def plan(
    config: ExperimentConfig,
    protocols: Sequence[str] = DEFAULT_DEADLINE_PROTOCOLS,
    slack_factor: float = 2.0,
) -> List[RunSpec]:
    """The deadline-annotated workload under each protocol.

    ECN-dependent protocols (DCTCP, D2TCP) automatically get ECN-marking
    queues; every other protocol runs on the configuration's own queue kind,
    mirroring the deployment reality the paper argues from.
    """
    if slack_factor <= 0:
        raise ValueError("slack_factor must be positive")
    specs: List[RunSpec] = []
    for protocol in protocols:
        point_config = config.with_protocol(protocol)
        if protocol in ECN_PROTOCOLS:
            point_config = point_config.with_updates(queue_kind=QUEUE_ECN)
        specs.append(
            RunSpec(
                index=len(specs),
                config=point_config,
                workload_factory=build_deadline_workload_for,
                workload_args=(protocol, slack_factor),
                tag={"protocol": protocol, "slack_factor": slack_factor},
            )
        )
    return specs


def rows(spec: RunSpec, result: ExperimentResult) -> List[Dict[str, object]]:
    """One protocol's deadline miss rate and completion statistics.

    The deadlines live on the flow specs, which stay in the worker; the
    recipe is a pure function of the spec, so rebuilding it here recovers
    exactly the deadlines the run saw.
    """
    workload = spec.workload_factory(spec.config, *spec.workload_args)
    metrics = result.metrics
    completion_times = {record.flow_id: record.completion_time for record in metrics.flows}
    return [
        {
            **spec.tag,
            **metrics.columns("short_flows"),
            "deadline_miss_rate": deadline_miss_rate(workload.flows, completion_times),
            **metrics.columns("mean_fct_ms", "p99_fct_ms", "rto_incidence", "completion_rate"),
        }
    ]
