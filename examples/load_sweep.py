#!/usr/bin/env python3
"""Load sweep: MPTCP vs MMPTCP as the offered load grows.

One of the paper's roadmap scenarios is the effect of network load.  This
example sweeps the short-flow arrival rate around the Figure 1 operating
point for MPTCP(8) and MMPTCP(8), prints the resulting completion-time and
RTO statistics, and renders an ASCII CDF of the short-flow completion times
at the highest load so the tail difference is visible without any plotting
stack.

Run with:  python examples/load_sweep.py [--workers N]

``--workers N`` fans the sweep's (protocol, load) points out over a process
pool; the printed tables are identical for any worker count because every
point is fully determined by its config and results are merged in point
order, never completion order.
"""

from __future__ import annotations

import argparse

from repro.experiments import (
    ExperimentConfig,
    load_sweep_rows,
    points_by_protocol,
    run_load_sweep,
)
from repro.experiments.parallel import workers_argument_type
from repro.metrics.export import ascii_cdf
from repro.metrics.reporting import render_table
from repro.sim.units import megabits_per_second
from repro.traffic import PROTOCOL_MMPTCP, PROTOCOL_MPTCP

LOAD_FACTORS = (0.5, 1.0, 2.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=workers_argument_type, default=1,
                        help="process-pool size (1 = serial, 0 = one per CPU)")
    args = parser.parse_args()
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
        seed=11,
    )
    print(f"Sweeping offered load x{LOAD_FACTORS} for MPTCP(8) and MMPTCP(8)...")
    points = run_load_sweep(
        config,
        protocols=(PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
        load_factors=LOAD_FACTORS,
        num_subflows=8,
        workers=args.workers,
    )

    rows = load_sweep_rows(points)
    print()
    print(render_table(
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
    ))

    grouped = points_by_protocol(points)
    print("\nShort-flow completion-time CDFs at the highest load:")
    for protocol, series in grouped.items():
        heaviest = series[-1]
        fct_ms = heaviest.result.metrics.short_flow_fct_ms()
        print(f"\n{protocol} (load {heaviest.load_factor:.1f}x, "
              f"{len(fct_ms)} completed short flows)")
        print(ascii_cdf(fct_ms, label="completion time (ms)"))


if __name__ == "__main__":
    main()
