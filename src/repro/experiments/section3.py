"""Section 3 statistics: the paper's prose "table".

Section 3 reports, for the Figure 1 workload:

* mean / standard deviation of short-flow completion time —
  MMPTCP 116 ms (std 101) vs MPTCP 126 ms (std 425);
* the majority of MMPTCP short flows completing within 100 ms;
* slightly lower loss rates at the core and aggregation layers for MMPTCP;
* equal average long-flow throughput and overall network utilisation.

:func:`plan` is the paired comparison.  Each run projects to those
quantities through the metric catalogue: as a table row (the ``section3``
entry of :data:`repro.experiments.study.STUDIES`) and as a
:class:`ProtocolStatistics`, which
:func:`repro.experiments.study.section3_statistics` returns in pairs as a
:class:`Section3Comparison`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.metrics.collector import ExperimentResult
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP


@dataclass
class ProtocolStatistics:
    """The Section 3 quantities for one protocol; every field after
    ``protocol`` is named after its entry in the metric catalogue
    (:meth:`~repro.metrics.collector.ExperimentMetrics.columns`)."""

    protocol: str
    mean_fct_ms: float
    std_fct_ms: float
    p99_fct_ms: float
    within_100ms: float
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
        names = [item.name for item in fields(ProtocolStatistics)[1:]]
        return ProtocolStatistics(protocol, **result.metrics.columns(*names))


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
