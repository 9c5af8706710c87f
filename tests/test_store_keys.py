"""Property tests for cache-key canonicalisation.

The store's correctness rests on the key being a pure function of the run's
input: equal configs must map to equal keys, any single field change must
change the key, and the mapping must be identical across processes, Python
invocations and worker counts (no ``hash()``, no dict-order, no process
state).  The last test is the one guard on ``STORE_SCHEMA_VERSION``: it pins
the version to what the store really keys and writes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.config import CHOICES, ExperimentConfig
from repro.experiments.parallel import RunSpec, execute_spec
from repro.net.faults import link_failure
from repro.scenarios import matrix_plan
from repro.scenarios.spec import build_scenario_workload, tiny_config
from repro.store import (
    STORE_SCHEMA_VERSION,
    RunStore,
    run_key,
    run_key_for_spec,
    workload_recipe,
)
from repro.store.canonical import sha256_hex
from repro.traffic.flowspec import PROTOCOL_MMPTCP

#: The default tiny config's key, pinned.  If this changes, every existing
#: store silently turns into a full miss — bump STORE_SCHEMA_VERSION when
#: changing key derivation deliberately, and regenerate this literal.
_TINY_CONFIG_KEY = "a0f197902830575655a6460e915f538be549333054f64a9fc5038a84fc37386b"

#: One valid alternate value per ExperimentConfig field.  The completeness
#: test below fails when a new config field is added without extending this
#: table, so "any single field change ⇒ key change" keeps covering the
#: whole config.  A choice field's alternate is the first legal value in
#: ``CHOICES`` that differs from the tiny config's, so the table can never
#: name a choice that no longer exists.
_FIELD_CHANGES = {
    "fattree_k": 6,
    "hosts_per_edge": 3,
    "link_rate_bps": 2e8,
    "core_oversubscription": 2.0,
    "link_delay_s": 1e-5,
    "queue_capacity_packets": 50,
    "long_flow_fraction": 0.5,
    "short_flow_size_bytes": 1000,
    "long_flow_size_bytes": 1000,
    "short_flow_rate_per_sender": 2.0,
    "arrival_window_s": 0.4,
    "max_short_flows": 5,
    "drain_time_s": 0.5,
    "num_subflows": 2,
    "mss_bytes": 1000,
    "initial_cwnd_segments": 3,
    "min_rto_s": 0.1,
    "dupack_threshold": 4,
    "switching_threshold_bytes": 1000,
    "fault_schedule": (link_failure(0.1, "core-0", "agg-0-0"),),
    "seed": 2,
    **{
        name: next(value for value in legal if value != getattr(tiny_config(), name))
        for name, legal in CHOICES.items()
    },
}


def test_field_change_table_covers_every_config_field() -> None:
    assert set(_FIELD_CHANGES) == {spec.name for spec in fields(ExperimentConfig)}


def test_pinned_key_of_the_default_tiny_config() -> None:
    assert run_key(tiny_config()) == _TINY_CONFIG_KEY


@pytest.mark.parametrize("field_name", sorted(_FIELD_CHANGES))
def test_any_single_field_change_changes_the_key(field_name: str) -> None:
    base = tiny_config()
    changed = base.with_updates(**{field_name: _FIELD_CHANGES[field_name]})
    assert getattr(changed, field_name) != getattr(base, field_name)
    assert run_key(changed) != run_key(base)


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

_override_strategies = {
    "seed": st.integers(min_value=0, max_value=2**31),
    "num_subflows": st.integers(min_value=1, max_value=8),
    "queue_capacity_packets": st.integers(min_value=10, max_value=200),
    "arrival_window_s": st.floats(min_value=0.01, max_value=1.0,
                                  allow_nan=False, allow_infinity=False),
    "protocol": st.sampled_from(["tcp", "mptcp", "mmptcp"]),
}

_overrides = st.fixed_dictionaries({}, optional=_override_strategies)


@given(overrides=_overrides)
@settings(max_examples=50, deadline=None)
def test_equal_configs_have_equal_keys(overrides) -> None:
    """Two independently constructed equal configs always key identically."""
    first = tiny_config(**overrides)
    second = tiny_config(**dict(overrides))
    assert first == second
    assert run_key(first) == run_key(second)


@given(overrides=_overrides, seed_a=st.integers(0, 2**31), seed_b=st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_different_seeds_have_different_keys(overrides, seed_a, seed_b) -> None:
    overrides.pop("seed", None)
    key_a = run_key(tiny_config(seed=seed_a, **overrides))
    key_b = run_key(tiny_config(seed=seed_b, **overrides))
    assert (key_a == key_b) == (seed_a == seed_b)


@given(value=st.integers(min_value=1, max_value=10**9))
@settings(max_examples=50, deadline=None)
def test_numerically_equal_values_key_identically(value) -> None:
    """``2.0`` and ``2`` compare equal as configs, so they must key equally."""
    as_int = tiny_config().with_updates(link_rate_bps=value)
    as_float = tiny_config().with_updates(link_rate_bps=float(value))
    assert as_int == as_float
    assert run_key(as_int) == run_key(as_float)


# ---------------------------------------------------------------------------
# Execution-detail independence
# ---------------------------------------------------------------------------


def test_key_ignores_spec_index_and_tag_but_not_the_recipe() -> None:
    config = tiny_config()
    plain = RunSpec(index=0, config=config)
    relabelled = RunSpec(index=7, config=config, tag={"anything": "else"})
    assert run_key_for_spec(plain) == run_key_for_spec(relabelled)
    # The default workload recipe keys like no recipe at all...
    assert run_key_for_spec(plain) == run_key(config)
    # ...but an explicit factory participates in the key.
    with_recipe = RunSpec(
        index=0,
        config=config,
        workload_factory=build_scenario_workload,
        workload_args=("incast", 4, 20_000, None),
    )
    assert run_key_for_spec(with_recipe) != run_key(config)
    # And its arguments do too.
    other_args = RunSpec(
        index=0,
        config=config,
        workload_factory=build_scenario_workload,
        workload_args=("incast", 8, 20_000, None),
    )
    assert run_key_for_spec(with_recipe) != run_key_for_spec(other_args)


def test_workload_recipe_canonical_form() -> None:
    assert workload_recipe(None) is None
    recipe = workload_recipe(build_scenario_workload, ("incast", 4), {"receiver": None})
    assert recipe["factory"] == "repro.scenarios.spec:build_scenario_workload"
    assert recipe["args"] == ["incast", 4]
    assert recipe["kwargs"] == {"receiver": None}


def test_key_is_stable_across_process_restarts() -> None:
    """A fresh interpreter derives the identical key (no per-process state)."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "from repro.scenarios.spec import tiny_config\n"
        "from repro.store import run_key\n"
        "print(run_key(tiny_config(seed=424242, num_subflows=2)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env=env, cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        for _ in range(2)
    }
    assert outputs == {run_key(tiny_config(seed=424242, num_subflows=2))}


# ---------------------------------------------------------------------------
# The store schema pin
# ---------------------------------------------------------------------------

#: STORE_SCHEMA_VERSION -> (run key, artifact surface) of the tiny
#: ``core-link-failure`` x ``mmptcp`` cell.  The key covers the ``run_key``
#: envelope, every config and fault-event field and the workload recipe's
#: keys; the surface is the sha256 of the sorted key paths of the artifact
#: ``RunStore.put`` writes for the cell's result, so it covers every
#: serialised record and snapshot field and the artifact envelope.  A pair is
#: pinned only together with the version bump that makes old artifacts clean
#: misses; the test's failure message prints the pair to pin.
_SCHEMA_PINS = {
    8: (
        "3eaea5e550e6927187c8036e9470da965852e561c2e5ab44ffbc395759c96929",
        "ef78325bf29029c451f287c42671f5b17011b53b17975ed67797a691c4b2cccf",
    ),
}


def _key_paths(node, path: str = "$"):
    """Every key path of a parsed JSON document; list items share ``[]``."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _key_paths(value, f"{path}.{key}")
    elif isinstance(node, list):
        for item in node:
            yield from _key_paths(item, f"{path}[]")


def test_schema_version_pins_what_the_store_keys_and_writes(tmp_path) -> None:
    (spec,) = matrix_plan(tiny_config(), ["core-link-failure"], [PROTOCOL_MMPTCP])
    key = run_key_for_spec(spec)
    artifact = json.loads(RunStore(tmp_path).put(key, execute_spec(spec)).read_text())
    derived = (key, sha256_hex("\n".join(sorted(set(_key_paths(artifact))))))
    version = STORE_SCHEMA_VERSION
    pinned = _SCHEMA_PINS.get(version)
    assert pinned is not None, (
        f"STORE_SCHEMA_VERSION {version} has no pin; once the bump is "
        f"deliberate, pin {version}: {derived!r} in _SCHEMA_PINS"
    )
    assert pinned == derived, (
        f"the cell derives {derived!r}, not the {pinned!r} pinned for "
        f"STORE_SCHEMA_VERSION {version}.  A changed key envelope, field set "
        "or artifact layout needs a version bump in repro/store/canonical.py "
        "and the printed pair pinned under the new version; a deliberate "
        "change of the cell's values alone re-pins under the same version"
    )
