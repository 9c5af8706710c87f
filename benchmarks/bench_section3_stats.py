"""Section 3 statistics: the paper's prose "table" of MPTCP vs MMPTCP numbers.

Reproduces, on the paired workload:

* mean / std short-flow FCT (paper: MMPTCP 116/101 ms vs MPTCP 126/425 ms),
* the fraction of MMPTCP short flows finishing within 100 ms ("the majority"),
* per-layer (core / aggregation) loss rates, slightly lower for MMPTCP,
* long-flow throughput and network utilisation parity.
"""

from __future__ import annotations

import pytest

from bench_common import base_config
from repro.experiments import section3_statistics
from repro.metrics.reporting import render_table


@pytest.mark.benchmark(group="section3")
def test_section3_mptcp_vs_mmptcp_statistics(benchmark) -> None:
    """Run the paired MPTCP/MMPTCP comparison and print the Section 3 numbers."""
    config = base_config()

    comparison = benchmark.pedantic(
        section3_statistics, args=(config, 8), rounds=1, iterations=1
    )
    mptcp = comparison.mptcp
    mmptcp = comparison.mmptcp

    print("\nSection 3 statistics — MPTCP(8) vs MMPTCP(PS + 8), same workload/seed")
    print(
        render_table(
            ["metric", "MPTCP", "MMPTCP", "paper (MPTCP)", "paper (MMPTCP)"],
            [
                ["mean short FCT (ms)", f"{mptcp.mean_fct_ms:.1f}", f"{mmptcp.mean_fct_ms:.1f}",
                 "126", "116"],
                ["std short FCT (ms)", f"{mptcp.std_fct_ms:.1f}", f"{mmptcp.std_fct_ms:.1f}",
                 "425", "101"],
                ["flows <= 100 ms", f"{100 * mptcp.within_100ms:.1f}%",
                 f"{100 * mmptcp.within_100ms:.1f}%", "-", "majority"],
                ["flows with >= 1 RTO", f"{100 * mptcp.rto_incidence:.1f}%",
                 f"{100 * mmptcp.rto_incidence:.1f}%", "-", "-"],
                ["core loss rate", f"{100 * mptcp.core_loss_rate:.3f}%",
                 f"{100 * mmptcp.core_loss_rate:.3f}%", "-", "slightly lower"],
                ["aggregation loss rate", f"{100 * mptcp.aggregation_loss_rate:.3f}%",
                 f"{100 * mmptcp.aggregation_loss_rate:.3f}%", "-", "slightly lower"],
                ["long-flow throughput (Mbps)", f"{mptcp.long_flow_throughput_mbps:.1f}",
                 f"{mmptcp.long_flow_throughput_mbps:.1f}", "equal", "equal"],
                ["core utilisation", f"{100 * mptcp.core_utilisation:.1f}%",
                 f"{100 * mmptcp.core_utilisation:.1f}%", "equal", "equal"],
                ["short-flow completion rate", f"{100 * mptcp.completion_rate:.1f}%",
                 f"{100 * mmptcp.completion_rate:.1f}%", "-", "-"],
            ],
        )
    )

    # Qualitative reproduction targets from the paper's prose.  (The mean/std
    # columns are reported but not asserted: MMPTCP loses to MPTCP on mean,
    # std and p99 at every scale this repo runs, 1 Gbps links included, and
    # why is open — see ROADMAP item 2.  The mechanism the paper attributes
    # the tail to — retransmission timeouts — is asserted directly instead.)
    assert mmptcp.rto_incidence <= mptcp.rto_incidence + 1e-9, (
        "MMPTCP should suffer RTOs on no more short flows than MPTCP"
    )
    assert mmptcp.core_loss_rate <= mptcp.core_loss_rate + 1e-9, (
        "MMPTCP's core-layer loss rate should not exceed MPTCP's"
    )
    assert comparison.throughput_parity(tolerance=0.3), (
        "long-flow throughput should be roughly equal for MPTCP and MMPTCP"
    )
    assert mmptcp.completion_rate >= mptcp.completion_rate - 1e-9
    assert mmptcp.within_100ms >= 0.5, (
        "the majority of MMPTCP short flows should finish within 100 ms"
    )
