"""Section 3 statistics: the paper's prose "table".

Section 3 reports, for the Figure 1 workload:

* mean / standard deviation of short-flow completion time —
  MMPTCP 116 ms (std 101) vs MPTCP 126 ms (std 425);
* the majority of MMPTCP short flows completing within 100 ms;
* slightly lower loss rates at the core and aggregation layers for MMPTCP;
* equal average long-flow throughput and overall network utilisation.

:func:`plan` is the paired comparison.  Each run projects to those
quantities through the metric catalogue, as a row of the ``section3`` entry
of :data:`repro.experiments.study.STUDIES`; the claims table
(``benchmarks/test_claims.py``) checks the comparisons on those rows.
"""

from __future__ import annotations

from typing import List

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP


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
