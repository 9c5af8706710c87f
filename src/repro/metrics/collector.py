"""Experiment-level metrics aggregation.

:class:`ExperimentMetrics` joins per-flow records with the network-level
snapshot (per-layer loss rates, utilisation) and produces the quantities the
paper reports: short-flow FCT mean/std, the per-flow scatter of completion
times, RTO incidence, long-flow throughput and network utilisation.
:class:`ExperimentResult` pairs it with the run's config and provenance.

This module is a plain record: it imports no simulator code, so the run
store and the campaign reports can load results without the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.metrics.records import FlowRecord
from repro.metrics.stats import DistributionSummary, fraction_above, summarize
from repro.net.monitor import NetworkSnapshot

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.experiments.config import ExperimentConfig


#: The metric columns of a per-cell row (:meth:`ExperimentMetrics.cell_row`),
#: in emission order.  This order is a **public contract**: scenario-matrix
#: and campaign CSV headers, report tables and the across-replication summary
#: all derive from it, so reordering these keys changes exported bytes.
#: Extend at the end only.
CELL_METRIC_FIELDS = (
    "short_flows",
    "completion_rate",
    "mean_fct_ms",
    "p99_fct_ms",
    "rto_incidence",
    "retransmits",
    "rtos",
    "fault_drops",
    "long_tput_mbps",
)


def _within_100ms(metrics: ExperimentMetrics, fct: DistributionSummary) -> float:
    """Fraction of completed short flows that took at most 100 ms."""
    fct_values = metrics.short_flow_fct_ms()
    return (
        sum(1 for value in fct_values if value <= 100.0) / len(fct_values)
        if fct_values
        else 0.0
    )


#: Every per-run metric, defined once: the names it is exported under (row
#: column, :meth:`ExperimentMetrics.summary_dict` key, Section 3 row key)
#: and its one function ``(metrics, short-flow FCT summary) -> value``.
_METRICS = (
    (("short_flows",), lambda m, fct: len(m.short_flows)),
    (("short_flows_completed",), lambda m, fct: len(m.completed_short_flows)),
    (("mean_fct_ms", "short_fct_mean_ms"), lambda m, fct: fct.mean),
    (("std_fct_ms", "short_fct_std_ms"), lambda m, fct: fct.std),
    (("p99_fct_ms", "short_fct_p99_ms"), lambda m, fct: fct.p99),
    (("max_fct_ms",), lambda m, fct: fct.maximum),
    (("within_100ms",), _within_100ms),
    (("completion_rate", "short_completion_rate"),
     lambda m, fct: m.short_flow_completion_rate()),
    (("rto_incidence",), lambda m, fct: m.rto_incidence()),
    (("tail_over_200ms",), lambda m, fct: m.tail_fraction(200.0)),
    (("retransmits",), lambda m, fct: sum(record.retransmitted_packets for record in m.flows)),
    (("rtos",), lambda m, fct: sum(record.rto_events for record in m.flows)),
    (("total_rtos",), lambda m, fct: sum(record.rto_events for record in m.short_flows)),
    (("fault_drops",), lambda m, fct: m.fault_drops),
    (("edge_loss_rate", "edge_loss"), lambda m, fct: m.loss_rate("edge")),
    (("aggregation_loss_rate", "agg_loss"), lambda m, fct: m.loss_rate("aggregation")),
    (("core_loss_rate", "core_loss"), lambda m, fct: m.loss_rate("core")),
    (("long_tput_mbps", "long_throughput_mbps", "long_flow_throughput_mbps"),
     lambda m, fct: m.mean_long_flow_throughput_bps() / 1e6),
    (("core_utilisation", "core_util"), lambda m, fct: m.core_utilisation()),
)

#: The catalogue by exported name.  Every projection of a run's metrics —
#: scenario and campaign rows, study rows, :meth:`ExperimentMetrics.summary_dict`
#: and the Section 3 statistics — selects from it
#: (:meth:`ExperimentMetrics.columns`) in its own order.
_COLUMNS = {name: metric for names, metric in _METRICS for name in names}


@dataclass
class ExperimentMetrics:
    """All measurements from one simulation run."""

    flows: List[FlowRecord] = field(default_factory=list)
    network: Optional[NetworkSnapshot] = None
    duration_s: float = 0.0

    # ------------------------------------------------------------------
    # Flow views
    # ------------------------------------------------------------------

    @property
    def short_flows(self) -> List[FlowRecord]:
        """Records of the latency-sensitive flows."""
        return [flow for flow in self.flows if not flow.is_long]

    @property
    def long_flows(self) -> List[FlowRecord]:
        """Records of the background flows."""
        return [flow for flow in self.flows if flow.is_long]

    @property
    def completed_short_flows(self) -> List[FlowRecord]:
        """Short flows that finished within the experiment horizon."""
        return [flow for flow in self.short_flows if flow.completed]

    # ------------------------------------------------------------------
    # Headline statistics (Section 3 of the paper)
    # ------------------------------------------------------------------

    def short_flow_fct_ms(self) -> List[float]:
        """Completion times (milliseconds) of all completed short flows."""
        return [
            flow.completion_time_ms
            for flow in self.completed_short_flows
            if flow.completion_time_ms is not None
        ]

    def short_flow_fct_summary(self) -> DistributionSummary:
        """Mean/std/percentiles of short-flow completion time in milliseconds."""
        return summarize(self.short_flow_fct_ms())

    def short_flow_completion_rate(self) -> float:
        """Fraction of short flows that completed before the horizon."""
        short = self.short_flows
        if not short:
            return 0.0
        return len(self.completed_short_flows) / len(short)

    def rto_incidence(self) -> float:
        """Fraction of short flows that experienced at least one RTO."""
        short = self.short_flows
        if not short:
            return 0.0
        return sum(1 for flow in short if flow.experienced_rto) / len(short)

    def tail_fraction(self, threshold_ms: float = 200.0) -> float:
        """Fraction of completed short flows slower than ``threshold_ms``."""
        return fraction_above(self.short_flow_fct_ms(), threshold_ms)

    def long_flow_throughputs_bps(self) -> List[float]:
        """Goodput of each long flow over the experiment horizon."""
        return [flow.throughput_bps(self.duration_s) for flow in self.long_flows]

    def mean_long_flow_throughput_bps(self) -> float:
        """Average long-flow goodput in bits per second."""
        throughputs = self.long_flow_throughputs_bps()
        if not throughputs:
            return 0.0
        # Accumulated left to right: builtin sum() compensates float
        # additions from CPython 3.12 on, and pinned outputs hold the bits.
        total = 0.0
        for throughput in throughputs:
            total += throughput
        return total / len(throughputs)

    def loss_rate(self, layer: str) -> float:
        """Packet loss rate at one switch layer (``core``/``aggregation``/``edge``)."""
        if self.network is None:
            return 0.0
        return self.network.loss_rate(layer)

    @property
    def fault_drops(self) -> int:
        """Packets lost at down interfaces during the run.

        These losses bypass the queue counters entirely, so without this
        field the loss columns silently undercount under link failures.
        """
        return self.network.total_fault_drops if self.network is not None else 0

    def core_utilisation(self) -> float:
        """Average utilisation of core-switch links over the experiment."""
        return self.network.core_utilisation if self.network is not None else 0.0

    # ------------------------------------------------------------------
    # Scatter series (Figure 1(b) / 1(c))
    # ------------------------------------------------------------------

    def completion_scatter(self) -> List[Dict[str, float]]:
        """Per-flow points (flow id vs completion time in seconds) for the scatter plots."""
        points = []
        for flow in self.completed_short_flows:
            completion = flow.completion_time
            if completion is None:
                continue
            points.append({"flow_id": float(flow.flow_id), "completion_time_s": completion})
        return points

    #: The keys of :meth:`summary_dict`, in emission order.  This order is a
    #: **public contract**: CSV/table exports and store artifacts derive
    #: their column/key order from dict insertion order, so reordering these
    #: changes exported bytes.  Extend at the end only.
    SUMMARY_FIELDS = (
        "short_flows",
        "short_flows_completed",
        "short_fct_mean_ms",
        "short_fct_std_ms",
        "short_fct_p99_ms",
        "short_completion_rate",
        "rto_incidence",
        "tail_over_200ms",
        "long_flow_throughput_mbps",
        "fault_drops",
        "core_loss_rate",
        "aggregation_loss_rate",
        "edge_loss_rate",
        "core_utilisation",
    )

    def summary_dict(self) -> Dict[str, float]:
        """A flat dictionary of the headline numbers (useful for reports/tests).

        Key order is insertion-stable and equals :data:`SUMMARY_FIELDS`;
        callers may rely on it for deterministic, byte-comparable exports.
        """
        return {name: float(value) for name, value in self.columns(*self.SUMMARY_FIELDS).items()}

    def columns(self, *names: str) -> Dict[str, object]:
        """The named row columns of this run, in the order asked for.

        Everything here derives from the simulated metrics only — never from
        wall-clock or worker counts — which keeps rows byte-stable across
        re-runs and cache hits.
        """
        fct = self.short_flow_fct_summary()
        return {name: _COLUMNS[name](self, fct) for name in names}

    def cell_row(self) -> Dict[str, object]:
        """The :data:`CELL_METRIC_FIELDS` columns: the metric half of every
        scenario-matrix and campaign row, so the two families stay
        column-compatible."""
        return self.columns(*CELL_METRIC_FIELDS)


@dataclass
class ExperimentResult:
    """Metrics plus provenance for one run.

    ``diagnostics`` and ``telemetry`` are observability side-channels: they
    never participate in equality, are never serialised by
    ``store/serialize.py`` and never reach a ``run_key`` — attaching probes
    or the profiler cannot change what a run *is*, only what it reports.
    """

    config: ExperimentConfig
    metrics: ExperimentMetrics
    events_processed: int
    wallclock_s: float
    workload_size: int
    #: ``--profile`` output (the sanctioned wall-clock island), or None.
    diagnostics: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)
    #: Rendered telemetry records (used to ferry a worker-side recorder's
    #: content across the process boundary), or None.
    telemetry: Optional[List[Dict[str, Any]]] = field(default=None, compare=False, repr=False)
