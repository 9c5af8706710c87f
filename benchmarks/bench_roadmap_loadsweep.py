"""Roadmap experiment — effect of network load (MPTCP vs MMPTCP).

Section 3's roadmap lists "network loads" among the scenarios being studied.
This benchmark sweeps the short-flow arrival rate around the Figure 1
operating point for MPTCP(8) and MMPTCP(8) and reports how the mean / tail
completion times and RTO incidence evolve; the expectation from the paper's
argument is that MMPTCP's advantage (fewer RTO-scale completions) holds or
grows as the offered load rises.
"""

from __future__ import annotations

import pytest

from bench_common import roadmap_config
from repro.experiments import load_sweep_rows, points_by_protocol, run_load_sweep
from repro.metrics.reporting import render_table
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP

LOAD_FACTORS = (0.5, 1.0, 2.0)


def _run_sweep():
    return run_load_sweep(
        roadmap_config(),
        protocols=(PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
        load_factors=LOAD_FACTORS,
        num_subflows=8,
    )


@pytest.mark.benchmark(group="roadmap-loadsweep")
def test_roadmap_load_sweep_mptcp_vs_mmptcp(benchmark) -> None:
    """Short-flow completion statistics as the offered load grows."""
    points = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    rows = load_sweep_rows(points)
    print("\nRoadmap — load sweep: short-flow statistics vs offered load")
    print(
        render_table(
            ["protocol", "load", "mean FCT (ms)", "p99 FCT (ms)", "RTO incidence",
             "> 200 ms", "completed", "long tput (Mbps)"],
            [
                [
                    row["protocol"],
                    f"{row['load_factor']:.1f}x",
                    f"{row['mean_fct_ms']:.1f}",
                    f"{row['p99_fct_ms']:.1f}",
                    f"{100 * row['rto_incidence']:.1f}%",
                    f"{100 * row['tail_over_200ms']:.1f}%",
                    f"{100 * row['completion_rate']:.1f}%",
                    f"{row['long_throughput_mbps']:.1f}",
                ]
                for row in rows
            ],
        )
    )
    print(
        "Paper (roadmap): MMPTCP's short-flow advantage should persist across\n"
        "network loads; long-flow throughput stays comparable to MPTCP."
    )

    grouped = points_by_protocol(points)
    assert set(grouped) == {PROTOCOL_MPTCP, PROTOCOL_MMPTCP}
    assert all(len(series) == len(LOAD_FACTORS) for series in grouped.values())

    # Every point at or below 2x load keeps a high completion rate.
    for point in points:
        assert point.completion_rate > 0.8, (point.protocol, point.load_factor)

    # Summed over the sweep, MMPTCP suffers RTOs on no more short flows than
    # MPTCP (the paper's central claim, integrated over load).
    mptcp_rto = sum(point.rto_incidence for point in grouped[PROTOCOL_MPTCP])
    mmptcp_rto = sum(point.rto_incidence for point in grouped[PROTOCOL_MMPTCP])
    assert mmptcp_rto <= mptcp_rto + 0.05
