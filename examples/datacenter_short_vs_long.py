#!/usr/bin/env python3
"""The paper's headline experiment at example scale: short vs. long flows.

Runs the Figure 1 workload — a 4:1 over-subscribed FatTree where one third of
the servers push long background flows and the rest send 70 KB short flows
with Poisson arrivals over a permutation matrix — under TCP, MPTCP(8) and
MMPTCP(PS + 8), all on the *same* workload (same seed), and prints the
short-flow completion-time statistics and long-flow throughput for each.

This is a smaller version of the ``section3`` study (``repro-mmptcp section3``,
whose comparisons the ``section3-*`` claims in benchmarks/test_claims.py
check) intended to finish in about a minute.

Run with:  python examples/datacenter_short_vs_long.py
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig, run_experiment
from repro.metrics import render_table
from repro.sim.units import megabits_per_second, megabytes


def example_config() -> ExperimentConfig:
    """A deliberately small instance of the paper's workload."""
    return ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=8,                      # 4:1 over-subscription, 64 hosts
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.15,
        drain_time_s=1.0,
        short_flow_rate_per_sender=5.0,
        long_flow_size_bytes=megabytes(2),
        max_short_flows=40,
        seed=7,
    )


def main() -> None:
    config = example_config()
    protocols = {
        "tcp": config.with_protocol("tcp"),
        "mptcp (8 subflows)": config.with_protocol("mptcp", num_subflows=8),
        "mmptcp (PS + 8)": config.with_protocol("mmptcp", num_subflows=8),
    }

    rows = []
    for label, protocol_config in protocols.items():
        print(f"Running {label} ...")
        result = run_experiment(protocol_config)
        summary = result.metrics.summary_dict()
        rows.append([
            label,
            int(summary["short_flows_completed"]),
            f"{summary['short_fct_mean_ms']:.1f}",
            f"{summary['short_fct_std_ms']:.1f}",
            f"{summary['short_fct_p99_ms']:.1f}",
            f"{100 * summary['rto_incidence']:.1f}%",
            f"{summary['long_flow_throughput_mbps']:.1f}",
            f"{100 * summary['core_loss_rate']:.3f}%",
        ])

    print("\nShort flows: completion-time statistics (70 KB each)")
    print(render_table(
        ["protocol", "flows", "mean (ms)", "std (ms)", "p99 (ms)",
         ">=1 RTO", "long tput (Mbps)", "core loss"],
        rows,
    ))
    print(
        "\nExpected shape (paper, Section 3): MMPTCP matches MPTCP's long-flow\n"
        "throughput while cutting the short-flow tail (std and RTO incidence)."
    )


if __name__ == "__main__":
    main()
