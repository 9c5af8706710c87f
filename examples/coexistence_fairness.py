#!/usr/bin/env python3
"""Co-existence: TCP, MPTCP and MMPTCP sharing one FatTree.

The paper argues MMPTCP must "co-exist in harmony with legacy TCP and MPTCP
flows" because a data centre cannot switch transports atomically.  This
example partitions the senders of a 4:1 over-subscribed FatTree into three
blocks — one per protocol — runs the paper's short/long workload in every
block simultaneously, and prints per-protocol completion times, long-flow
throughput and Jain's fairness index.

Run with:  python examples/coexistence_fairness.py
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig, coexistence_rows, run_coexistence_experiment
from repro.metrics.reporting import render_table
from repro.sim.units import megabits_per_second
from repro.traffic import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP


def main() -> None:
    config = ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=4,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.2,
        drain_time_s=1.0,
        short_flow_rate_per_sender=6.0,
        long_flow_size_bytes=2_000_000,
        max_short_flows=60,
        num_subflows=8,
        initial_cwnd_segments=2,
        seed=42,
    )
    print("Running TCP + MPTCP + MMPTCP side by side on one FatTree "
          f"({config.fattree_k=}, {config.hosts_per_edge=})...")
    outcome = run_coexistence_experiment(
        config, protocols=(PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)
    )

    rows = coexistence_rows(outcome)
    print()
    print(render_table(
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
    ))
    print()
    print(f"Jain fairness index over all long flows : {outcome.fairness_index():.3f}")
    print(f"MMPTCP / MPTCP long-flow throughput     : "
          f"{outcome.throughput_ratio(PROTOCOL_MMPTCP, PROTOCOL_MPTCP):.2f}x")
    print(f"Co-existing in harmony (within 50 %)?   : {outcome.harmony(tolerance=0.5)}")


if __name__ == "__main__":
    main()
