"""Baseline comparison — deadline-aware single-path transports vs MMPTCP.

The paper's introduction positions MMPTCP against DCTCP, D2TCP and D3, which
"require modifications in the network and/or deadline-awareness at the
application layer".  This benchmark assigns slack-based deadlines to every
short flow and measures the deadline miss rate under TCP, DCTCP, D2TCP
(which consumes the deadlines), MPTCP and MMPTCP — the quantitative version
of that paragraph.
"""

from __future__ import annotations

import pytest

from bench_common import roadmap_config
from repro.experiments import STUDIES, run_study, study_rows
from repro.metrics.reporting import render_table
from repro.traffic.flowspec import (
    PROTOCOL_D2TCP,
    PROTOCOL_DCTCP,
    PROTOCOL_MMPTCP,
    PROTOCOL_MPTCP,
    PROTOCOL_TCP,
)

PROTOCOLS = (PROTOCOL_TCP, PROTOCOL_DCTCP, PROTOCOL_D2TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)
SLACK_FACTOR = 3.0


def _run_deadline_study():
    return run_study(
        STUDIES["deadlines"],
        roadmap_config(),
        protocols=PROTOCOLS,
        slack_factor=SLACK_FACTOR,
    )


@pytest.mark.benchmark(group="baseline-deadlines")
def test_baseline_deadline_miss_rates(benchmark) -> None:
    """Deadline miss rates of the related-work baselines vs MMPTCP."""
    points = benchmark.pedantic(_run_deadline_study, rounds=1, iterations=1)
    outcomes = {point.protocol: point for point in points}

    rows = study_rows(points)
    print(f"\nBaselines — deadline study (slack factor {SLACK_FACTOR})")
    print(
        render_table(
            ["protocol", "short flows", "deadline misses", "mean FCT (ms)",
             "p99 FCT (ms)", "RTO incidence", "completed"],
            [
                [
                    row["protocol"],
                    row["short_flows"],
                    f"{100 * row['deadline_miss_rate']:.1f}%",
                    f"{row['mean_fct_ms']:.1f}",
                    f"{row['p99_fct_ms']:.1f}",
                    f"{100 * row['rto_incidence']:.1f}%",
                    f"{100 * row['completion_rate']:.1f}%",
                ]
                for row in rows
            ],
        )
    )
    print(
        "Paper (introduction): deadline-aware single-path transports need ECN and\n"
        "application-layer deadlines; MMPTCP targets low short-flow latency with\n"
        "neither.  D2TCP consumes the deadlines here; the others ignore them."
    )

    for protocol, outcome in outcomes.items():
        # Every transport keeps delivering its short flows at this load.
        assert outcome.completion_rate > 0.8, protocol
        assert 0.0 <= outcome.deadline_miss_rate <= 1.0

    # The ECN-based baselines (paired with marking switches) should not miss
    # more deadlines than plain drop-tail TCP on the same workload.
    assert outcomes[PROTOCOL_D2TCP].deadline_miss_rate <= (
        outcomes[PROTOCOL_TCP].deadline_miss_rate + 0.1
    )
    # MMPTCP's miss rate stays competitive with the deadline-aware baseline
    # despite using no deadline information at all (the paper's pitch).
    assert outcomes[PROTOCOL_MMPTCP].deadline_miss_rate <= (
        outcomes[PROTOCOL_D2TCP].deadline_miss_rate + 0.25
    )
