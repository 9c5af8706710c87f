"""Roadmap experiment — effect of hotspots (MPTCP vs MMPTCP).

Section 3's roadmap lists "the effect of hotspots" among the scenarios being
studied: a subset of receivers attracts a disproportionate share of traffic,
concentrating load on a few edge links.  This benchmark skews half of the
senders towards one eighth of the hosts and compares MPTCP(8) and MMPTCP(8)
on the identical skewed workload.
"""

from __future__ import annotations

import pytest

from bench_common import roadmap_config
from repro.experiments import STUDIES, run_study, study_rows
from repro.metrics.reporting import render_table
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP

HOTSPOT_FRACTION = 0.125
LOAD_FRACTION = 0.5


def _run_hotspot():
    return run_study(
        STUDIES["hotspot"],
        roadmap_config(),
        protocols=(PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
        hotspot_fraction=HOTSPOT_FRACTION,
        load_fraction=LOAD_FRACTION,
    )


@pytest.mark.benchmark(group="roadmap-hotspot")
def test_roadmap_hotspot_skew(benchmark) -> None:
    """MPTCP vs MMPTCP when half the senders target one eighth of the hosts."""
    points = benchmark.pedantic(_run_hotspot, rounds=1, iterations=1)
    outcomes = {point.protocol: point for point in points}

    rows = study_rows(points)
    print(f"\nRoadmap — hotspots: {int(100 * LOAD_FRACTION)}% of senders redirected "
          f"to {int(100 * HOTSPOT_FRACTION)}% of hosts")
    print(
        render_table(
            ["protocol", "mean FCT (ms)", "std FCT (ms)", "p99 FCT (ms)",
             "RTO incidence", "> 200 ms", "completed", "edge loss", "long tput (Mbps)"],
            [
                [
                    row["protocol"],
                    f"{row['mean_fct_ms']:.1f}",
                    f"{row['std_fct_ms']:.1f}",
                    f"{row['p99_fct_ms']:.1f}",
                    f"{100 * row['rto_incidence']:.1f}%",
                    f"{100 * row['tail_over_200ms']:.1f}%",
                    f"{100 * row['completion_rate']:.1f}%",
                    f"{100 * row['edge_loss_rate']:.3f}%",
                    f"{row['long_throughput_mbps']:.1f}",
                ]
                for row in rows
            ],
        )
    )
    print(
        "Paper (roadmap): hotspot skew concentrates congestion; packet scatter\n"
        "still spreads each flow's packets, so MMPTCP's tail should not be worse\n"
        "than MPTCP's."
    )

    mptcp = outcomes[PROTOCOL_MPTCP]
    mmptcp = outcomes[PROTOCOL_MMPTCP]
    # Both protocols keep delivering under skew.
    assert mptcp.completion_rate > 0.8
    assert mmptcp.completion_rate > 0.8
    # MMPTCP completes at least as large a fraction of its short flows.
    assert mmptcp.completion_rate >= mptcp.completion_rate - 0.05
    # And its RTO incidence is not meaningfully worse than MPTCP's.
    assert mmptcp.rto_incidence <= mptcp.rto_incidence + 0.05
