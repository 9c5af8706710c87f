#!/usr/bin/env python3
"""Deadline study: deadline-aware single-path baselines vs MMPTCP.

The paper's introduction dismisses DCTCP/D2TCP/D3 as universal answers
because they need switch ECN support and application-layer deadline
knowledge.  This example makes that argument quantitative: it attaches
slack-based deadlines to every 70 KB short flow, runs the same workload
under TCP, DCTCP, D2TCP (which actually consumes the deadlines), MPTCP and
MMPTCP, and prints the deadline miss rate of each.

Run with:  python examples/deadline_study.py
"""

from __future__ import annotations

from repro.experiments import STUDIES, ExperimentConfig, run_study, study_rows
from repro.metrics.reporting import render_table
from repro.sim.units import megabits_per_second
from repro.traffic import (
    PROTOCOL_D2TCP,
    PROTOCOL_DCTCP,
    PROTOCOL_MMPTCP,
    PROTOCOL_MPTCP,
    PROTOCOL_TCP,
)

SLACK_FACTOR = 3.0


def main() -> None:
    config = ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=4,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.2,
        drain_time_s=1.0,
        short_flow_rate_per_sender=6.0,
        long_flow_size_bytes=2_000_000,
        max_short_flows=50,
        num_subflows=8,
        initial_cwnd_segments=2,
        seed=7,
    )
    protocols = (PROTOCOL_TCP, PROTOCOL_DCTCP, PROTOCOL_D2TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)
    print(f"Assigning slack-{SLACK_FACTOR} deadlines to every short flow and running "
          f"{len(protocols)} transports on the same workload...")
    points = run_study(
        STUDIES["deadlines"],
        config,
        protocols=protocols,
        slack_factor=SLACK_FACTOR,
    )

    rows = study_rows(points)
    print()
    print(render_table(
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
    ))
    print()
    print("Notes: DCTCP/D2TCP ran on ECN-marking switches (their deployment")
    print("requirement); D2TCP is the only transport that reads the deadlines.")
    print("MMPTCP uses neither ECN nor deadline information.")


if __name__ == "__main__":
    main()
