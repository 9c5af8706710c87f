"""Section 3 statistics: the paper's prose "table".

Section 3 reports, for the Figure 1 workload:

* mean / standard deviation of short-flow completion time —
  MMPTCP 116 ms (std 101) vs MPTCP 126 ms (std 425);
* the majority of MMPTCP short flows completing within 100 ms;
* slightly lower loss rates at the core and aggregation layers for MMPTCP;
* equal average long-flow throughput and overall network utilisation.

:func:`plan` is the paired comparison; each run projects to those
quantities (:class:`ProtocolStatistics`), and
:func:`repro.experiments.study.section3_statistics` returns both as a
:class:`Section3Comparison`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.metrics.collector import ExperimentResult
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP


@dataclass
class ProtocolStatistics:
    """The Section 3 quantities for one protocol."""

    protocol: str
    mean_fct_ms: float
    std_fct_ms: float
    p99_fct_ms: float
    fraction_within_100ms: float
    rto_incidence: float
    core_loss_rate: float
    aggregation_loss_rate: float
    edge_loss_rate: float
    long_flow_throughput_mbps: float
    core_utilisation: float
    completion_rate: float

    @staticmethod
    def from_result(protocol: str, result: ExperimentResult) -> "ProtocolStatistics":
        """Extract the Section 3 quantities from one experiment result."""
        metrics = result.metrics
        fct = metrics.short_flow_fct_summary()
        fct_values = metrics.short_flow_fct_ms()
        within_100 = (
            sum(1 for value in fct_values if value <= 100.0) / len(fct_values)
            if fct_values
            else 0.0
        )
        return ProtocolStatistics(
            protocol=protocol,
            mean_fct_ms=fct.mean,
            std_fct_ms=fct.std,
            p99_fct_ms=fct.p99,
            fraction_within_100ms=within_100,
            rto_incidence=metrics.rto_incidence(),
            core_loss_rate=metrics.loss_rate("core"),
            aggregation_loss_rate=metrics.loss_rate("aggregation"),
            edge_loss_rate=metrics.loss_rate("edge"),
            long_flow_throughput_mbps=metrics.mean_long_flow_throughput_bps() / 1e6,
            core_utilisation=metrics.core_utilisation(),
            completion_rate=metrics.short_flow_completion_rate(),
        )

    def as_dict(self) -> Dict[str, float]:
        """Numeric fields as a flat dictionary (for table rendering)."""
        return {
            "mean_fct_ms": self.mean_fct_ms,
            "std_fct_ms": self.std_fct_ms,
            "p99_fct_ms": self.p99_fct_ms,
            "within_100ms": self.fraction_within_100ms,
            "rto_incidence": self.rto_incidence,
            "core_loss": self.core_loss_rate,
            "agg_loss": self.aggregation_loss_rate,
            "edge_loss": self.edge_loss_rate,
            "long_tput_mbps": self.long_flow_throughput_mbps,
            "core_util": self.core_utilisation,
            "completion_rate": self.completion_rate,
        }


@dataclass
class Section3Comparison:
    """MPTCP vs MMPTCP on the same workload (same seed, same arrivals)."""

    mptcp: ProtocolStatistics
    mmptcp: ProtocolStatistics

    def throughput_parity(self, tolerance: float = 0.25) -> bool:
        """Long-flow throughput should be roughly equal for the two protocols."""
        reference = max(self.mptcp.long_flow_throughput_mbps, 1e-9)
        delta = abs(self.mmptcp.long_flow_throughput_mbps - self.mptcp.long_flow_throughput_mbps)
        return delta / reference <= tolerance


def plan(config: ExperimentConfig) -> List[RunSpec]:
    """MPTCP then MMPTCP on the same workload (same seed, same arrivals)."""
    return [
        RunSpec(
            index=index,
            config=config.with_protocol(protocol),
            tag={"protocol": protocol},
        )
        for index, protocol in enumerate((PROTOCOL_MPTCP, PROTOCOL_MMPTCP))
    ]


def rows(spec: RunSpec, result: ExperimentResult) -> List[Dict[str, object]]:
    """One protocol's Section 3 quantities as a flat row."""
    statistics = ProtocolStatistics.from_result(spec.tag["protocol"], result)
    return [{**spec.tag, **statistics.as_dict()}]
