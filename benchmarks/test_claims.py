"""The paper's qualitative claims, checked at ``quick`` scale on seed 20150817.

:data:`CLAIMS` is the one table.  Each entry names the sentence it checks,
the plans whose runs it reads, the values it compares and the comparison.
The plans run through :func:`repro.experiments.run_points`, the executor
behind the CLI's study sub-commands, once per session however many claims
read them.  Run it with ``python -m pytest benchmarks/test_claims.py`` (about
two minutes on two cores); a failure prints the sentence and the compared
values.  ``tests/test_claims_guard.py`` runs every plan at tiny scale in the
default suite, so the table cannot rot unnoticed.

A claim that stops holding after a change that moves simulated results is a
finding to report, not a threshold to loosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

import pytest

from repro.experiments import STUDIES, ExperimentConfig, run_points
from repro.experiments.coexistence import CoexistenceResult
from repro.experiments.config import scaled_config
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import fabric_host_names
from repro.experiments.study import Row, StudyPoint
from repro.metrics.collector import ExperimentMetrics, ExperimentResult
from repro.sim.units import megabytes
from repro.traffic.workloads import Workload, build_incast_workload

QUICK = scaled_config("quick", 20150817)

#: The ablations' workload: the quick fabric keeps its 4:1 over-subscription
#: (the congestion that makes MPTCP's thin subflow windows time out is the
#: mechanism the ablations measure) with fewer short flows and a shorter
#: arrival window, so each variant runs in seconds.
ABLATION = dict(
    max_short_flows=80,
    short_flow_rate_per_sender=6.0,
    long_flow_size_bytes=megabytes(3),
    arrival_window_s=0.2,
    drain_time_s=1.0,
)

#: The roadmap studies' workload: half the fabric (2:1 over-subscription) and
#: a capped flow count.  Their claims are ordering and parity claims.
ROADMAP = dict(
    hosts_per_edge=4,
    max_short_flows=60,
    short_flow_rate_per_sender=6.0,
    long_flow_size_bytes=megabytes(2),
    arrival_window_s=0.2,
    drain_time_s=1.0,
)


@dataclass(frozen=True, eq=False)
class Plan:
    """Independent runs built from a base config, and the rows of each result.

    ``overrides`` turn :data:`QUICK` into the plan's base; the tier-1 guard
    hands ``specs`` the tiny config instead.
    """

    specs: Callable[[ExperimentConfig], List[RunSpec]]
    rows: Callable[[RunSpec, ExperimentResult], List[Row]]
    overrides: Mapping[str, Any] = field(default_factory=dict)


def study(name: str, overrides: Optional[Mapping[str, Any]] = None, **params: Any) -> Plan:
    """The plan of ``STUDIES[name]`` with ``params``, as its sub-command runs it."""
    entry = STUDIES[name]
    return Plan(lambda base: entry.plan(base, **params), entry.rows, dict(overrides or {}))


def variants(
    overrides: Mapping[str, Any],
    configs: Mapping[str, Mapping[str, Any]],
    recipe: Optional[Callable[[ExperimentConfig], Workload]] = None,
) -> Plan:
    """One run per labelled set of config updates, tagged ``variant``."""

    def specs(base: ExperimentConfig) -> List[RunSpec]:
        return [
            RunSpec(index, base.with_updates(**updates), workload_factory=recipe,
                    tag={"variant": label})
            for index, (label, updates) in enumerate(configs.items())
        ]

    return Plan(specs, _no_rows, dict(overrides))


def _no_rows(spec: RunSpec, result: ExperimentResult) -> List[Row]:
    return []


def incast_burst(config: ExperimentConfig) -> Workload:
    """24 senders, drawn with the config seed, each send 70 kB at 0.01 s to
    the fabric's first host."""
    hosts = fabric_host_names(config)
    senders = random.Random(config.seed).sample(hosts[1:], 24)
    return build_incast_workload(
        senders, hosts[0], response_size_bytes=70_000, start_time=0.01,
        protocol=config.protocol, num_subflows=8,
    )


def execute(
    plans: Iterable[Plan], base: Callable[[Plan], ExperimentConfig], workers: int = 1
) -> Dict[Plan, List[StudyPoint]]:
    """Each plan's points on ``base(plan)``, from one call of the CLI's executor.

    A run is its spec without index and tag, so a run that several plans
    share (the same config and workload recipe) is simulated once.
    """
    specs = {plan: plan.specs(base(plan)) for plan in plans}
    runs = list(dict.fromkeys(_run(spec) for listed in specs.values() for spec in listed))
    executed = run_points(
        [replace(run, index=index) for index, run in enumerate(runs)],
        _no_rows, workers,
    )
    results = {run: point.result for run, point in zip(runs, executed)}

    def point(plan: Plan, spec: RunSpec) -> StudyPoint:
        result = results[_run(spec)]
        return StudyPoint(spec, result, plan.rows(spec, result))

    return {plan: [point(plan, spec) for spec in listed] for plan, listed in specs.items()}


def _run(spec: RunSpec) -> RunSpec:
    return replace(spec, index=0, tag=None)


FIGURE1A = study("figure1a", subflow_counts=(1, 2, 4, 8))
FIGURE1B = study("figure1b")
FIGURE1C = study("figure1c")
SECTION3 = study("section3")
LOADSWEEP = study("loadsweep", ROADMAP, protocols=("mptcp", "mmptcp"), load_factors=(0.5, 1.0, 2.0))
HOTSPOT = study("hotspot", ROADMAP, protocols=("mptcp", "mmptcp"),
                hotspot_fraction=0.125, load_fraction=0.5)
COEXISTENCE = study("coexistence", dict(ROADMAP, protocol="mmptcp", num_subflows=8),
                    protocols=("tcp", "mptcp", "mmptcp"))

_MPTCP8 = dict(protocol="mptcp", num_subflows=8)
_MMPTCP8 = dict(protocol="mmptcp", num_subflows=8)
SWITCHING = variants(ABLATION, {
    "mptcp": _MPTCP8,
    "volume 70KB": dict(_MMPTCP8, switching_policy="data_volume", switching_threshold_bytes=70_000),
    "volume 140KB": dict(_MMPTCP8, switching_policy="data_volume",
                         switching_threshold_bytes=140_000),
    "volume 280KB": dict(_MMPTCP8, switching_policy="data_volume",
                         switching_threshold_bytes=280_000),
    "congestion-event": dict(_MMPTCP8, switching_policy="congestion_event"),
    "never": dict(_MMPTCP8, switching_policy="never"),
})
# Pure packet scatter (never switch) isolates the reordering behaviour.
REORDERING = variants(ABLATION, {
    policy: dict(_MMPTCP8, switching_policy="never", reordering_policy=policy)
    for policy in ("static", "topology_informed", "adaptive")
})
RTO = variants({}, {
    "mptcp-1": dict(protocol="mptcp", num_subflows=1),
    "mptcp-8": _MPTCP8,
    "mmptcp-8": _MMPTCP8,
})
_INCAST = dict(hosts_per_edge=8, arrival_window_s=0.1, drain_time_s=2.5)
INCAST = variants({}, {
    "tcp / fattree": dict(_INCAST, protocol="tcp"),
    "mptcp / fattree": dict(_INCAST, protocol="mptcp"),
    "mmptcp / fattree": dict(_INCAST, protocol="mmptcp"),
    "mmptcp / dualhomed": dict(_INCAST, protocol="mmptcp", topology="dualhomed"),
}, recipe=incast_burst)


def _metrics(points: List[StudyPoint]) -> Dict[str, ExperimentMetrics]:
    return {point.spec.tag["variant"]: point.result.metrics for point in points}


def _completion(points: List[StudyPoint]) -> Dict[str, float]:
    return {label: m.short_flow_completion_rate() for label, m in _metrics(points).items()}


def _rto(*labels: str) -> Callable[[List[StudyPoint]], Dict[str, float]]:
    return lambda points: {label: _metrics(points)[label].rto_incidence() for label in labels}


def _by_protocol(column: str) -> Callable[[List[StudyPoint]], Dict[str, Any]]:
    return lambda points: {point.protocol: getattr(point, column) for point in points}


def _coexistence(points: List[StudyPoint]) -> CoexistenceResult:
    (point,) = points
    return CoexistenceResult.from_result(point.result, point.spec.tag["protocols"])


def _only(points: List[StudyPoint]) -> ExperimentMetrics:
    (point,) = points
    return point.result.metrics


def _fast_retransmits(metrics: ExperimentMetrics) -> int:
    return sum(record.fast_retransmits for record in metrics.short_flows)


def _left_scatter(metrics: ExperimentMetrics) -> int:
    return sum(record.phase_at_completion != "packet_scatter" for record in metrics.short_flows)


class Claim(NamedTuple):
    """One checked sentence.

    ``values`` takes the executed points of each of ``plans``, in order, and
    returns the named values ``holds`` compares.
    """

    name: str
    sentence: str
    plans: Tuple[Plan, ...]
    values: Callable[..., Dict[Any, Any]]
    holds: Callable[[Dict[Any, Any]], bool]


CLAIMS: List[Claim] = [
    Claim(
        "figure1a-every-count-measures-short-flows",
        "Figure 1(a): MPTCP completes short flows at every subflow count.",
        (FIGURE1A,),
        lambda points: {p.subflows: p.result.metrics.short_flow_fct_summary().count
                        for p in points},
        lambda counts: all(count > 0 for count in counts.values()),
    ),
    Claim(
        "figure1a-rto-incidence-grows",
        "Figure 1(a): the fraction of short flows with >= 1 RTO grows with the "
        "subflow count (8 vs 1 subflow, 0.02 slack).",
        (FIGURE1A,),
        lambda points: {"1 subflow": points[0].rto_incidence,
                        "8 subflows": points[-1].rto_incidence},
        lambda v: v["8 subflows"] >= v["1 subflow"] - 0.02,
    ),
    Claim(
        "figure1a-std-grows",
        "Figure 1(a): the standard deviation of short-flow FCT grows with the "
        "subflow count (8 subflows >= 0.7 x 1 subflow).",
        (FIGURE1A,),
        lambda points: {"1 subflow": points[0].std_fct_ms, "8 subflows": points[-1].std_fct_ms},
        lambda v: v["8 subflows"] >= 0.7 * v["1 subflow"],
    ),
    Claim(
        "figure1b-short-flows-measured",
        "Figure 1(b): MPTCP(8) completes short flows to plot.",
        (FIGURE1B,),
        lambda points: {"short flows": _only(points).short_flow_fct_summary().count},
        lambda v: v["short flows"] > 0,
    ),
    Claim(
        "figure1b-one-point-per-flow",
        "Figure 1(b): the scatter plots every completed MPTCP(8) short flow.",
        (FIGURE1B,),
        lambda points: {"scatter points": len(points[0].rows),
                        "short-flow FCTs": len(_only(points).short_flow_fct_ms())},
        lambda v: v["scatter points"] == v["short-flow FCTs"],
    ),
    Claim(
        "figure1b-rto-tail",
        "Figure 1(b): a tail of MPTCP(8) short flows is stalled by 200 ms "
        "retransmission timeouts.",
        (FIGURE1B,),
        lambda points: {"max FCT (ms)": _only(points).short_flow_fct_summary().maximum,
                        "RTO incidence": _only(points).rto_incidence()},
        lambda v: v["max FCT (ms)"] >= 200.0 or v["RTO incidence"] > 0.0,
    ),
    Claim(
        "figure1c-one-point-per-flow",
        "Figure 1(c): MMPTCP completes short flows, and the scatter plots each one.",
        (FIGURE1C,),
        lambda points: {"scatter points": len(points[0].rows),
                        "short-flow FCTs": len(_only(points).short_flow_fct_ms())},
        lambda v: v["scatter points"] == v["short-flow FCTs"] > 0,
    ),
    Claim(
        "figure1c-fewer-rtos",
        "Figure 1(c) vs 1(b): MMPTCP suffers RTOs on at most as many short flows as MPTCP(8).",
        (FIGURE1C, FIGURE1B),
        lambda mmptcp, mptcp: {"mmptcp": _only(mmptcp).rto_incidence(),
                               "mptcp": _only(mptcp).rto_incidence()},
        lambda v: v["mmptcp"] <= v["mptcp"] + 1e-9,
    ),
    Claim(
        "figure1c-completes-as-many",
        "Figure 1(c) vs 1(b): MMPTCP completes at least as many short flows as MPTCP(8).",
        (FIGURE1C, FIGURE1B),
        lambda mmptcp, mptcp: {"mmptcp": _only(mmptcp).short_flow_completion_rate(),
                               "mptcp": _only(mptcp).short_flow_completion_rate()},
        lambda v: v["mmptcp"] >= v["mptcp"],
    ),
    Claim(
        "figure1c-spread-same-order",
        "Figure 1(c) vs 1(b): MMPTCP's short-flow FCT std is at most twice MPTCP(8)'s "
        "(the paper reports a 4x reduction at full scale).",
        (FIGURE1C, FIGURE1B),
        lambda mmptcp, mptcp: {"mmptcp": _only(mmptcp).short_flow_fct_summary().std,
                               "mptcp": _only(mptcp).short_flow_fct_summary().std},
        lambda v: v["mmptcp"] <= 2.0 * v["mptcp"],
    ),
    Claim(
        "section3-fewer-rtos",
        "Section 3: MMPTCP suffers RTOs on no more short flows than MPTCP.",
        (SECTION3,),
        _by_protocol("rto_incidence"),
        lambda v: v["mmptcp"] <= v["mptcp"] + 1e-9,
    ),
    Claim(
        "section3-core-loss",
        "Section 3: MMPTCP has slightly lower loss rates at the core layer.",
        (SECTION3,),
        _by_protocol("core_loss"),
        lambda v: v["mmptcp"] <= v["mptcp"] + 1e-9,
    ),
    Claim(
        "section3-long-flow-throughput-parity",
        "Section 3: average long-flow throughput is equal (within 30%).",
        (SECTION3,),
        _by_protocol("long_tput_mbps"),
        lambda v: abs(v["mmptcp"] - v["mptcp"]) / max(v["mptcp"], 1e-9) <= 0.3,
    ),
    Claim(
        "section3-completion",
        "Section 3: MMPTCP completes at least as many short flows as MPTCP.",
        (SECTION3,),
        _by_protocol("completion_rate"),
        lambda v: v["mmptcp"] >= v["mptcp"] - 1e-9,
    ),
    Claim(
        "section3-majority-within-100ms",
        "Section 3: most MMPTCP short flows complete within 100 ms.",
        (SECTION3,),
        _by_protocol("within_100ms"),
        lambda v: v["mmptcp"] >= 0.5,
    ),
    Claim(
        "switching-short-flows-complete",
        "Phase switching: short flows complete (> 90%) under every switching policy.",
        (SWITCHING,),
        _completion,
        lambda rates: all(rate > 0.9 for rate in rates.values()),
    ),
    Claim(
        "switching-volume-keeps-long-flow-throughput",
        "Phase switching: data-volume switching does not reduce long-flow throughput "
        "(within 35% of MPTCP's).",
        (SWITCHING,),
        lambda points: {label: m.mean_long_flow_throughput_bps()
                        for label, m in _metrics(points).items()
                        if label == "mptcp" or label.startswith("volume")},
        lambda tput: all(abs(value - tput["mptcp"]) / max(tput["mptcp"], 1e-9) < 0.35
                         for label, value in tput.items() if label.startswith("volume")),
    ),
    Claim(
        "switching-short-flows-finish-in-scatter",
        "Phase switching: short flows complete during the packet-scatter phase "
        "(volume thresholds of 140 and 280 KB).",
        (SWITCHING,),
        lambda points: {label: _left_scatter(_metrics(points)[label])
                        for label in ("volume 140KB", "volume 280KB")},
        lambda switched: all(count == 0 for count in switched.values()),
    ),
    Claim(
        "reordering-informed-threshold",
        "Reordering: the topology-informed threshold suppresses spurious fast "
        "retransmissions (no more fast retransmits than dupACK = 3).",
        (REORDERING,),
        lambda points: {label: _fast_retransmits(_metrics(points)[label])
                        for label in ("static", "topology_informed")},
        lambda v: v["topology_informed"] <= v["static"],
    ),
    Claim(
        "reordering-short-flows-complete",
        "Reordering: short flows complete (> 90%) under every threshold policy.",
        (REORDERING,),
        _completion,
        lambda rates: all(rate > 0.9 for rate in rates.values()),
    ),
    Claim(
        "rto-incidence-grows-with-subflows",
        "RTO ablation: the number of connections with one or more RTOs grows with "
        "the subflow count (8 vs 1 subflow, 0.02 slack).",
        (RTO,),
        _rto("mptcp-1", "mptcp-8"),
        lambda v: v["mptcp-8"] >= v["mptcp-1"] - 0.02,
    ),
    Claim(
        "rto-mmptcp-avoids-timeouts",
        "RTO ablation: MMPTCP largely avoids RTOs (no more than MPTCP(8), 0.02 slack).",
        (RTO,),
        _rto("mptcp-8", "mmptcp-8"),
        lambda v: v["mmptcp-8"] <= v["mptcp-8"] + 0.02,
    ),
    Claim(
        "coexistence-short-flows-complete",
        "Co-existence: every protocol's short flows make progress (> 80%) on a shared fabric.",
        (COEXISTENCE,),
        lambda points: {protocol: share.completion_rate
                        for protocol, share in _coexistence(points).shares.items()
                        if share.short_flow_count},
        lambda rates: all(rate > 0.8 for rate in rates.values()),
    ),
    Claim(
        "coexistence-harmony",
        "Co-existence: MMPTCP could co-exist in harmony with TCP and MPTCP (no protocol's "
        "long flows get less than a quarter of the best-treated one's).",
        (COEXISTENCE,),
        lambda points: {
            "long tput (bps)": {protocol: share.mean_long_throughput_bps
                                 for protocol, share in _coexistence(points).shares.items()},
            "harmony(0.75)": _coexistence(points).harmony(tolerance=0.75),
        },
        lambda v: v["harmony(0.75)"],
    ),
    Claim(
        "coexistence-mmptcp-mptcp-ratio",
        "Co-existence: MMPTCP does not crowd out MPTCP's long flows, nor vice versa "
        "(mean throughput ratio within 3x).",
        (COEXISTENCE,),
        lambda points: {"mmptcp / mptcp": _coexistence(points).throughput_ratio("mmptcp",
                                                                                "mptcp")},
        lambda v: 1 / 3 <= v["mmptcp / mptcp"] <= 3.0,
    ),
    Claim(
        "coexistence-fairness",
        "Co-existence: Jain's fairness over all long flows stays above 0.5.",
        (COEXISTENCE,),
        lambda points: {"jain": _coexistence(points).fairness_index()},
        lambda v: v["jain"] > 0.5,
    ),
    Claim(
        "hotspot-mptcp-delivers",
        "Hotspots: MPTCP keeps completing short flows (> 80%) under skew.",
        (HOTSPOT,),
        _by_protocol("completion_rate"),
        lambda v: v["mptcp"] > 0.8,
    ),
    Claim(
        "hotspot-mmptcp-delivers",
        "Hotspots: MMPTCP keeps completing short flows (> 80%) under skew.",
        (HOTSPOT,),
        _by_protocol("completion_rate"),
        lambda v: v["mmptcp"] > 0.8,
    ),
    Claim(
        "hotspot-mmptcp-completes-as-many",
        "Hotspots: MMPTCP completes at least as large a fraction of its short flows "
        "as MPTCP (0.05 slack).",
        (HOTSPOT,),
        _by_protocol("completion_rate"),
        lambda v: v["mmptcp"] >= v["mptcp"] - 0.05,
    ),
    Claim(
        "hotspot-mmptcp-tail",
        "Hotspots: packet scatter still spreads each flow, so MMPTCP's RTO incidence "
        "is not worse than MPTCP's (0.05 slack).",
        (HOTSPOT,),
        _by_protocol("rto_incidence"),
        lambda v: v["mmptcp"] <= v["mptcp"] + 0.05,
    ),
    Claim(
        "incast-responses-complete",
        "Incast: a synchronised 24-to-1 burst of 70 kB responses completes (>= 90%) "
        "under every transport and topology.",
        (INCAST,),
        _completion,
        lambda rates: all(rate >= 0.9 for rate in rates.values()),
    ),
    Claim(
        "incast-scatter-absorbs-bursts",
        "Incast: packet scatter absorbs bursts across many queues (MMPTCP has no more "
        "RTOs than MPTCP(8) on the FatTree).",
        (INCAST,),
        _rto("mptcp / fattree", "mmptcp / fattree"),
        lambda v: v["mmptcp / fattree"] <= v["mptcp / fattree"] + 1e-9,
    ),
    Claim(
        "loadsweep-completion",
        "Load sweep: every point up to 2x load completes > 80% of its short flows.",
        (LOADSWEEP,),
        lambda points: {f"{p.protocol} @ {p.load_factor}x": p.completion_rate for p in points},
        lambda rates: all(rate > 0.8 for rate in rates.values()),
    ),
    Claim(
        "loadsweep-mmptcp-advantage-persists",
        "Load sweep: MMPTCP's short-flow advantage persists across loads (summed RTO "
        "incidence no more than MPTCP's, 0.05 slack).",
        (LOADSWEEP,),
        lambda points: {protocol: sum(p.rto_incidence for p in points if p.protocol == protocol)
                        for protocol in ("mptcp", "mmptcp")},
        lambda v: v["mmptcp"] <= v["mptcp"] + 0.05,
    ),
]


@pytest.fixture(scope="module")
def executed(request: pytest.FixtureRequest) -> Dict[Plan, List[StudyPoint]]:
    """The points of every plan that the selected claims read, at quick
    scale, so ``-k`` runs only what its claims need."""
    selected = [item.callspec.params["claim"] for item in request.session.items
                if item.module is request.module]
    plans = dict.fromkeys(plan for claim in selected for plan in claim.plans)
    return execute(plans, lambda plan: QUICK.with_updates(**plan.overrides))


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.name)
def test_claim(claim: Claim, executed: Dict[Plan, List[StudyPoint]]) -> None:
    values = claim.values(*(executed[plan] for plan in claim.plans))
    assert claim.holds(values), f"{claim.sentence} Compared: {values}"
