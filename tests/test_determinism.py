"""Determinism regression tests.

Guards the seed-derivation machinery: the same seed must reproduce MMPTCP's
phase-switch times and flow completion times bit-for-bit across independent
runs (this is what makes the parallel sweep runner safe), and different
seeds must drive genuinely distinct streams.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.randomness import derive_seed, spawn_seed, spawn_seeds
from repro.traffic.flowspec import PROTOCOL_MMPTCP


def mmptcp_config(seed: int = 11) -> ExperimentConfig:
    return ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=2,
        arrival_window_s=0.05,
        drain_time_s=0.4,
        short_flow_rate_per_sender=6.0,
        long_flow_size_bytes=400_000,
        max_short_flows=10,
        protocol=PROTOCOL_MMPTCP,
        num_subflows=2,
        seed=seed,
    )


def _flow_signature(config: ExperimentConfig):
    """Everything the paper plots, per flow: FCTs, switch times, phases."""
    result = run_experiment(config)
    return [
        (
            record.flow_id,
            record.receiver_completion_time,
            record.sender_completion_time,
            record.switch_time,
            record.phase_at_completion,
            record.rto_events,
            record.data_packets_sent,
        )
        for record in result.metrics.flows
    ]


# ---------------------------------------------------------------------------
# core/mmptcp.py + core/phase_switching.py end-to-end determinism
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_switch_times_and_fcts() -> None:
    config = mmptcp_config(seed=11)
    first = _flow_signature(config)
    second = _flow_signature(config)
    assert first == second
    # The run actually exercised the phase machinery, not a degenerate case.
    assert any(switch is not None for (_, _, _, switch, _, _, _) in first)


def test_different_seeds_produce_distinct_runs() -> None:
    first = _flow_signature(mmptcp_config(seed=11))
    second = _flow_signature(mmptcp_config(seed=12))
    assert first != second


# ---------------------------------------------------------------------------
# Seed-stream derivation
# ---------------------------------------------------------------------------


def test_spawn_seed_is_stable_and_key_sensitive() -> None:
    assert spawn_seed(1, "sweep", 0) == spawn_seed(1, "sweep", 0)
    assert spawn_seed(1, "sweep", 0) != spawn_seed(1, "sweep", 1)
    assert spawn_seed(1, "sweep", 0) != spawn_seed(2, "sweep", 0)
    assert spawn_seed(1, "a") != spawn_seed(1, "b")


def test_spawn_seed_avoids_concatenation_collisions() -> None:
    assert spawn_seed(1, "ab", "c") != spawn_seed(1, "a", "bc")
    assert spawn_seed(1, 3) != spawn_seed(1, "3")
    assert spawn_seed(1, "x", 12) != spawn_seed(1, "x", 1, 2)


def test_spawn_seed_requires_a_key() -> None:
    with pytest.raises(ValueError):
        spawn_seed(1)


def test_spawn_seeds_prefix_and_extension() -> None:
    seeds = spawn_seeds(7, 4)
    assert len(seeds) == len(set(seeds)) == 4
    assert seeds == [spawn_seed(7, "point", index) for index in range(4)]
    assert spawn_seeds(7, 6)[:4] == seeds
    assert spawn_seeds(7, 4, "loadsweep") != seeds
    assert spawn_seeds(7, 0) == []
    with pytest.raises(ValueError):
        spawn_seeds(7, -1)


def test_spawned_streams_do_not_collide_with_named_streams() -> None:
    # The legacy name-derived seeds and the new spawn-key seeds live in
    # different hash domains; equal-looking inputs must not alias.
    assert derive_seed(1, "sweep") != spawn_seed(1, "sweep")
