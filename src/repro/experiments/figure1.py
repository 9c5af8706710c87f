"""Plans for Figure 1 of the paper.

* **Figure 1(a)** — mean and standard deviation of short-flow completion time
  for MPTCP as the number of subflows grows from 1 to 9.
* **Figure 1(b)** — the per-flow scatter of short-flow completion times for
  MPTCP with 8 subflows.
* **Figure 1(c)** — the same scatter for MMPTCP (packet scatter + 8 subflows).

Every point runs the paired workload (same seed, same arrivals, same
permutation matrix) under the relevant protocol; execution is
:func:`repro.experiments.study.run_study`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import RunSpec
from repro.traffic.flowspec import PROTOCOL_MPTCP

#: The sub-flow counts of the paper's Figure 1(a) x-axis.
FIGURE1A_SUBFLOW_COUNTS = tuple(range(1, 10))


def figure1a_plan(
    config: ExperimentConfig,
    subflow_counts: Sequence[int] = FIGURE1A_SUBFLOW_COUNTS,
) -> List[RunSpec]:
    """One MPTCP run per subflow count, all on the base seed (paired workload)."""
    return [
        RunSpec(
            index=index,
            config=config.with_protocol(PROTOCOL_MPTCP, num_subflows=count),
            tag={"subflows": count},
        )
        for index, count in enumerate(subflow_counts)
    ]


def scatter_plan(protocol: str, config: ExperimentConfig) -> List[RunSpec]:
    """The single ``protocol`` run whose per-flow completion times form a scatter."""
    return [RunSpec(index=0, config=config.with_protocol(protocol))]
