"""Shared configuration and helpers for the benchmark harnesses.

Every benchmark regenerates one of the paper's figures or reported
statistics on a scaled-down FatTree (the paper's 512-host, 1 Gbps fabric
takes hours in pure Python).  Two scales are provided:

* the default ``BENCH`` scale finishes the whole suite in a few minutes on a
  laptop;
* setting the environment variable ``REPRO_BENCH_SCALE=large`` (or ``paper``)
  selects progressively larger fabrics/workloads for higher-fidelity runs.

Benchmarks print the same rows/series the paper reports, so running
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction log.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.experiments.config import ExperimentConfig, scaled_config
from repro.sim.units import megabits_per_second, megabytes

#: Which scale to run: "tiny" (smoke tests), "quick" (default), "large", or "paper".
SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()


def _tiny_config() -> ExperimentConfig:
    """16-host fabric and a handful of flows; sub-second per run.

    Exists for the smoke tests in ``tests/test_benchmarks_smoke.py``: the
    entry point of every benchmark runs at this scale under plain pytest so
    the sweep plumbing cannot rot unnoticed.  Too small for any of the
    paper's qualitative claims to hold — never assert claims at this scale.
    """
    return ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=2,
        link_rate_bps=megabits_per_second(100),
        arrival_window_s=0.05,
        drain_time_s=0.3,
        short_flow_rate_per_sender=6.0,
        long_flow_size_bytes=200_000,
        max_short_flows=8,
        initial_cwnd_segments=2,
        seed=20150817,
    )


def base_config() -> ExperimentConfig:
    """The benchmark configuration for the selected scale: the library's
    :func:`~repro.experiments.config.scaled_config` (``big`` is an alias of
    ``large``), or the smoke-test fabric for ``tiny``."""
    if SCALE == "tiny":
        return _tiny_config()
    return scaled_config("large" if SCALE == "big" else SCALE, seed=20150817)


def tiny_config() -> ExperimentConfig:
    """The smoke-test configuration, regardless of the selected scale."""
    return _tiny_config()


def small_config() -> ExperimentConfig:
    """A smaller workload used by the ablation benchmarks.

    Keeps the 4:1 over-subscription of the base configuration (the congestion
    that makes MPTCP's thin sub-flow windows time out is the very mechanism
    the ablations measure) but caps the short-flow count and shortens the
    arrival window so each ablation variant runs in a few tens of seconds.
    """
    return base_config().with_updates(
        max_short_flows=80,
        short_flow_rate_per_sender=6.0,
        long_flow_size_bytes=megabytes(3),
        arrival_window_s=0.2,
        drain_time_s=1.0,
    )


def roadmap_config() -> ExperimentConfig:
    """A light configuration for the roadmap benchmarks (coexistence, load
    sweep, hotspots).

    These benchmarks compare many protocol/parameter variants per run, so the
    fabric is halved (2:1 over-subscription) and the flow count capped to keep
    each variant to a few seconds.  The claims they check are ordering/parity
    claims, which are insensitive to this scaling; rerun with
    ``REPRO_BENCH_SCALE=large`` for the 4:1 fabric.
    """
    return base_config().with_updates(
        hosts_per_edge=4,
        max_short_flows=60,
        short_flow_rate_per_sender=6.0,
        long_flow_size_bytes=megabytes(2),
        arrival_window_s=0.2,
        drain_time_s=1.0,
    )


def summary_row(label: str, summary: Dict[str, float]) -> list:
    """A compact row of the headline metrics, used by several benchmarks."""
    return [
        label,
        f"{summary['short_fct_mean_ms']:.1f}",
        f"{summary['short_fct_std_ms']:.1f}",
        f"{summary['short_fct_p99_ms']:.1f}",
        f"{100 * summary['rto_incidence']:.1f}%",
        f"{100 * summary['short_completion_rate']:.1f}%",
        f"{summary['long_flow_throughput_mbps']:.1f}",
        f"{100 * summary['core_loss_rate']:.3f}%",
        f"{100 * summary['core_utilisation']:.1f}%",
    ]


SUMMARY_HEADERS = [
    "configuration",
    "mean FCT (ms)",
    "std FCT (ms)",
    "p99 FCT (ms)",
    "RTO incidence",
    "completed",
    "long tput (Mbps)",
    "core loss",
    "core util",
]
