"""Figure 1(b): per-flow completion times for MPTCP with 8 subflows.

The paper's scatter shows most short flows completing quickly but a heavy
tail of flows stalled for one or more 200 ms retransmission timeouts,
reaching seconds in the worst cases.
"""

from __future__ import annotations

import pytest

from bench_common import base_config
from repro.experiments import STUDIES, run_study
from repro.metrics.reporting import render_table
from repro.metrics.stats import fraction_above


@pytest.mark.benchmark(group="figure1b")
def test_figure1b_mptcp8_completion_scatter(benchmark) -> None:
    """Regenerate the MPTCP(8) per-flow completion-time scatter."""
    config = base_config()

    (point,) = benchmark.pedantic(
        run_study, args=(STUDIES["figure1b"], config), rounds=1, iterations=1
    )
    result = point.result
    metrics = result.metrics
    points = point.rows
    fct_ms = metrics.short_flow_fct_ms()
    summary = metrics.short_flow_fct_summary()

    print("\nFigure 1(b) — MPTCP (8 subflows): per-flow completion times")
    print(
        render_table(
            ["statistic", "value"],
            [
                ["short flows measured", summary.count],
                ["mean FCT (ms)", f"{summary.mean:.1f}"],
                ["std FCT (ms)", f"{summary.std:.1f}"],
                ["median FCT (ms)", f"{summary.p50:.1f}"],
                ["p99 FCT (ms)", f"{summary.p99:.1f}"],
                ["max FCT (ms)", f"{summary.maximum:.1f}"],
                ["flows > 200 ms (one RTO)", f"{100 * fraction_above(fct_ms, 200.0):.1f}%"],
                ["flows with >= 1 RTO", f"{100 * metrics.rto_incidence():.1f}%"],
            ],
        )
    )
    print("First 10 scatter points (flow id, completion time in seconds):")
    for point in points[:10]:
        print(f"  flow {int(point['flow_id']):5d}  {point['completion_time_s']:.4f} s")
    print(
        "Paper: mean 126 ms, std 425 ms; a visible population of flows sits at\n"
        "multiples of the 200 ms RTO, up to several seconds."
    )

    assert summary.count > 0
    assert len(points) == len(fct_ms)
    # The qualitative signature of Figure 1(b): an RTO-scale tail exists.
    assert summary.maximum >= 200.0 or metrics.rto_incidence() > 0.0
