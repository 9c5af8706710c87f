"""Serial-vs-parallel equivalence and unit tests for the sweep runner.

The contract under test: a sweep's output is *bit-identical* whether its
points run in-process (``workers=1``) or on a process pool (``workers>1``).
Every simulated quantity must match — per-flow records, aggregate rows,
summary dicts; only the wall-clock provenance may differ.
"""

from __future__ import annotations

import pytest

from repro.experiments import STUDIES, load_sweep_rows, run_load_sweep, run_study, study_rows
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    RunSpec,
    SweepRunner,
    execute_spec,
    resolve_workers,
    seeded_replications,
)
from repro.sim.randomness import spawn_seeds


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        fattree_k=2,
        hosts_per_edge=2,
        arrival_window_s=0.05,
        drain_time_s=0.3,
        short_flow_rate_per_sender=6.0,
        long_flow_size_bytes=200_000,
        max_short_flows=8,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def seed_specs(*seeds: int):
    return [RunSpec(index=index, config=tiny_config(seed=seed)) for index, seed in enumerate(seeds)]


# ---------------------------------------------------------------------------
# Equivalence: workers=1 vs workers=4
# ---------------------------------------------------------------------------


def test_load_sweep_parallel_matches_serial() -> None:
    """Identical per-flow records and aggregate rows at 1 and 4 workers."""
    config = tiny_config()
    serial = run_load_sweep(config, load_factors=(0.5, 1.0), workers=1)
    parallel = run_load_sweep(config, load_factors=(0.5, 1.0), workers=4)

    assert load_sweep_rows(serial) == load_sweep_rows(parallel)
    for point_s, point_p in zip(serial, parallel):
        assert point_s.result.metrics.flows == point_p.result.metrics.flows
        assert point_s.result.metrics.summary_dict() == point_p.result.metrics.summary_dict()
        assert point_s.result.events_processed == point_p.result.events_processed


def test_incast_sweep_parallel_matches_serial() -> None:
    """The pickled workload recipe rebuilds the same burst in each worker."""
    config = tiny_config(fattree_k=4)
    kwargs = dict(protocols=("tcp", "mmptcp"), fan_ins=(4,), response_bytes=20_000)
    serial = run_study(STUDIES["incast"], config, workers=1, **kwargs)
    parallel = run_study(STUDIES["incast"], config, workers=4, **kwargs)

    assert study_rows(serial) == study_rows(parallel)
    for point_s, point_p in zip(serial, parallel):
        assert point_s.result.metrics.flows == point_p.result.metrics.flows


def test_figure1a_series_parallel_matches_serial() -> None:
    config = tiny_config()
    serial = run_study(STUDIES["figure1a"], config, workers=1, subflow_counts=(1, 2))
    parallel = run_study(STUDIES["figure1a"], config, workers=2, subflow_counts=(1, 2))
    assert [point.subflows for point in serial] == [1, 2]
    assert study_rows(serial) == study_rows(parallel)


# ---------------------------------------------------------------------------
# SweepRunner mechanics
# ---------------------------------------------------------------------------


def test_results_ordered_by_index_not_submission_order() -> None:
    """Specs handed over shuffled still come back sorted by point index."""
    specs = seed_specs(3, 5, 9)
    shuffled = [specs[2], specs[0], specs[1]]
    results = SweepRunner(workers=1).run(shuffled)
    assert [result.config.seed for result in results] == [3, 5, 9]


def test_progress_callback_fires_in_index_order() -> None:
    seen = []
    SweepRunner(workers=1).run(seed_specs(3, 5), progress=lambda spec: seen.append(spec.index))
    assert seen == [0, 1]


def test_on_result_fires_once_per_point_with_matching_results() -> None:
    """Serial: completion order is index order, results match the merge."""
    delivered = []
    results = SweepRunner(workers=1).run(
        seed_specs(3, 5),
        on_result=lambda spec, result: delivered.append((spec.index, result)),
    )
    assert [index for index, _ in delivered] == [0, 1]
    assert [result for _, result in delivered] == results


def test_on_result_fires_for_every_point_on_a_process_pool() -> None:
    """Pool: every point is delivered exactly once (any completion order),
    and the returned list is still index-ordered and unperturbed."""
    delivered = {}
    results = SweepRunner(workers=3).run(
        seed_specs(3, 5, 9),
        on_result=lambda spec, result: delivered.__setitem__(spec.index, result),
    )
    assert sorted(delivered) == [0, 1, 2]
    assert [delivered[index] for index in (0, 1, 2)] == results
    assert [result.config.seed for result in results] == [3, 5, 9]


def test_execute_spec_without_factory_builds_default_workload() -> None:
    result = execute_spec(RunSpec(index=0, config=tiny_config()))
    assert result.workload_size > 0


def test_resolve_workers() -> None:
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-1)


# ---------------------------------------------------------------------------
# Seed replication streams
# ---------------------------------------------------------------------------


def test_seeded_replications_are_stable_and_distinct() -> None:
    base = tiny_config(seed=42)
    reps = seeded_replications(base, 4)
    seeds = [config.seed for config in reps]
    assert len(set(seeds)) == 4
    # Pure function of (root, index): recomputing and extending changes nothing.
    assert [config.seed for config in seeded_replications(base, 4)] == seeds
    assert [config.seed for config in seeded_replications(base, 6)][:4] == seeds
    # Same derivation scheme as the raw seed-list helper.
    assert seeds == spawn_seeds(42, 4, "replication")
    # Only the seed differs from the base config.
    assert reps[0].with_updates(seed=base.seed) == base


def test_seeded_replications_custom_root() -> None:
    base = tiny_config(seed=42)
    reps = seeded_replications(base, 2, root_seed=99)
    assert [config.seed for config in reps] == spawn_seeds(99, 2, "replication")
