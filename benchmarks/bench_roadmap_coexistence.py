"""Roadmap experiment — co-existence of MMPTCP with TCP and MPTCP.

Section 3: "In-depth investigation of how MMPTCP shares network resources
with TCP and MPTCP is part of our current work.  Early results suggest that
it could co-exist in harmony with them."  This benchmark runs the three
protocols side by side on one fabric (each protocol owns a block of senders,
all blocks share the aggregation/core links) and reports per-protocol
short-flow completion times, long-flow throughput and Jain's fairness index.
"""

from __future__ import annotations

import pytest

from bench_common import roadmap_config
from repro.experiments import coexistence_rows, run_coexistence_experiment
from repro.metrics.reporting import render_table
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP

PROTOCOLS = (PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)


def _run_coexistence():
    config = roadmap_config().with_updates(protocol=PROTOCOL_MMPTCP, num_subflows=8)
    return run_coexistence_experiment(config, protocols=PROTOCOLS)


@pytest.mark.benchmark(group="roadmap-coexistence")
def test_roadmap_coexistence_harmony(benchmark) -> None:
    """TCP, MPTCP and MMPTCP sharing one FatTree: nobody should be starved."""
    outcome = benchmark.pedantic(_run_coexistence, rounds=1, iterations=1)

    rows = coexistence_rows(outcome)
    print("\nRoadmap — co-existence: per-protocol statistics on a shared fabric")
    print(
        render_table(
            ["protocol", "short flows", "long flows", "mean FCT (ms)", "p99 FCT (ms)",
             "RTO incidence", "completed", "long tput (Mbps)"],
            [
                [
                    row["protocol"],
                    row["short_flows"],
                    row["long_flows"],
                    f"{row['mean_fct_ms']:.1f}",
                    f"{row['p99_fct_ms']:.1f}",
                    f"{100 * row['rto_incidence']:.1f}%",
                    f"{100 * row['completion_rate']:.1f}%",
                    f"{row['mean_long_throughput_mbps']:.1f}",
                ]
                for row in rows
            ],
        )
    )
    print(f"Jain fairness index over all long flows: {outcome.fairness_index():.3f}")
    print(
        "Paper (roadmap): early results suggest MMPTCP can co-exist in harmony\n"
        "with legacy TCP and MPTCP."
    )

    # Every protocol's short flows make progress on the shared fabric.
    for protocol, share in outcome.shares.items():
        if share.short_flow_count:
            assert share.completion_rate > 0.8, protocol
    # No protocol's long flows are starved relative to the best-treated one.
    assert outcome.harmony(tolerance=0.75)
    # MMPTCP does not crowd out MPTCP's long flows (nor vice versa) by more
    # than a factor of ~3 at this scale.
    ratio = outcome.throughput_ratio(PROTOCOL_MMPTCP, PROTOCOL_MPTCP)
    assert 1 / 3 <= ratio <= 3.0
    # Aggregate long-flow fairness stays in a sane band.
    assert outcome.fairness_index() > 0.5
