"""Tests for the content-addressed run store (canonical JSON, round trips,
atomic artifacts, integrity verification, gc)."""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.net.faults import link_failure
from repro.scenarios.spec import tiny_config
from repro.store import (
    RunStore,
    StoreError,
    StoreIntegrityError,
    canonical_dumps,
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
    run_key,
    to_jsonable,
)


def _fast_config(**overrides):
    defaults = dict(
        hosts_per_edge=1,
        arrival_window_s=0.05,
        drain_time_s=0.6,
        max_short_flows=3,
        long_flow_size_bytes=200_000,
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


@pytest.fixture(scope="module")
def tiny_result() -> ExperimentResult:
    """One real simulated result, shared by the round-trip tests."""
    return run_experiment(
        _fast_config(fault_schedule=(link_failure(0.02, "core-0", "agg-0-0"),))
    )


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def test_to_jsonable_converts_tuples_and_rejects_objects() -> None:
    assert to_jsonable((1, 2, ("a",))) == [1, 2, ["a"]]
    with pytest.raises(TypeError, match=r"\$\.x"):
        to_jsonable({"x": {1, 2}})
    with pytest.raises(TypeError, match="non-string"):
        to_jsonable({1: "a"})
    with pytest.raises(TypeError, match="non-finite"):
        to_jsonable({"x": float("nan")})


def test_canonical_dumps_is_sorted_compact_and_float_stable() -> None:
    text = canonical_dumps({"b": 2.0, "a": 0.1, "c": [1, True, None]})
    assert text == '{"a":0.1,"b":2.0,"c":[1,true,null]}'
    # Shortest round-trip float repr: 1e8 renders as the integral float form.
    assert canonical_dumps(1e8) == "100000000.0"
    # Equal payloads, different construction order -> equal bytes.
    assert canonical_dumps({"a": 1, "b": 2}) == canonical_dumps({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# Config / result round trips
# ---------------------------------------------------------------------------


def test_config_round_trip_is_lossless_including_faults() -> None:
    config = _fast_config(
        fault_schedule=(link_failure(0.02, "core-0", "agg-0-0"),),
        core_oversubscription=2.0,
    )
    payload = json.loads(canonical_dumps(config_to_dict(config)))
    assert config_from_dict(payload) == config


def test_result_round_trip_is_lossless_through_json(tiny_result) -> None:
    payload = json.loads(canonical_dumps(result_to_dict(tiny_result)))
    restored = result_from_dict(payload)
    assert restored == replace(tiny_result, wallclock_s=0.0)
    # Every simulated quantity survives exactly.
    assert restored.metrics.flows == tiny_result.metrics.flows
    assert restored.metrics.network == tiny_result.metrics.network
    assert restored.events_processed == tiny_result.events_processed
    assert restored.config == tiny_result.config
    # The one documented exception: wall-clock is normalised away.
    assert restored.wallclock_s == 0.0


def test_result_payload_is_byte_stable_across_serialisations(tiny_result) -> None:
    assert canonical_dumps(result_to_dict(tiny_result)) == canonical_dumps(
        result_to_dict(tiny_result)
    )


# ---------------------------------------------------------------------------
# RunStore
# ---------------------------------------------------------------------------


def test_store_put_get_has_round_trip(tmp_path, tiny_result) -> None:
    store = RunStore(tmp_path / "store")
    key = run_key(tiny_result.config)
    assert not store.has(key)
    with pytest.raises(KeyError):
        store.get(key)
    path = store.put(key, tiny_result, meta={"scenario": "x"})
    assert path.exists()
    assert store.has(key)
    assert store.get(key) == replace(tiny_result, wallclock_s=0.0)
    assert store.keys() == [key]
    artifact = store.get_artifact(key)
    assert artifact["meta"] == {"scenario": "x"}


def test_store_artifacts_are_byte_identical_across_puts(tmp_path, tiny_result) -> None:
    key = run_key(tiny_result.config)
    first = RunStore(tmp_path / "a")
    second = RunStore(tmp_path / "b")
    first.put(key, tiny_result)
    second.put(key, tiny_result)
    assert first.object_path(key).read_bytes() == second.object_path(key).read_bytes()


def test_store_rejects_malformed_keys(tmp_path, tiny_result) -> None:
    store = RunStore(tmp_path)
    for bad in ("", "short", "Z" * 64, "ABC" * 22):
        with pytest.raises(StoreError):
            store.put(bad, tiny_result)


def test_store_get_detects_tampering(tmp_path, tiny_result) -> None:
    store = RunStore(tmp_path)
    key = run_key(tiny_result.config)
    path = store.put(key, tiny_result)

    artifact = json.loads(path.read_text())
    artifact["payload"]["events_processed"] += 1
    # repro: allow[no-raw-json] -- tampered artifact, non-canonical on purpose
    path.write_text(json.dumps(artifact))
    with pytest.raises(StoreIntegrityError, match="hash mismatch"):
        store.get(key)

    path.write_text("{not json")
    with pytest.raises(StoreIntegrityError, match="unparseable"):
        store.get(key)


def _verify_reports_one_corrupt(store_root, capsys) -> None:
    assert main(["store", "verify", "--store", str(store_root)]) == 2
    captured = capsys.readouterr()
    assert "ok=0 corrupt=1" in captured.out
    assert captured.err.startswith("corrupt ")
    assert "Traceback" not in captured.err


def test_store_reports_a_nan_payload_float_as_corrupt(tmp_path, tiny_result, capsys) -> None:
    store = RunStore(tmp_path)
    key = run_key(tiny_result.config)
    path = store.put(key, tiny_result)
    artifact = json.loads(path.read_text())
    artifact["payload"]["wallclock_s"] = float("nan")
    # repro: allow[no-raw-json] -- tampered artifact, NaN on purpose
    path.write_text(json.dumps(artifact))
    with pytest.raises(StoreIntegrityError, match="not canonical"):
        store.get(key)
    _verify_reports_one_corrupt(tmp_path, capsys)


def test_store_reports_a_non_object_artifact_as_corrupt(tmp_path, tiny_result, capsys) -> None:
    store = RunStore(tmp_path)
    key = run_key(tiny_result.config)
    store.put(key, tiny_result).write_text("[1,2]")
    with pytest.raises(StoreIntegrityError, match="not an object"):
        store.get(key)
    _verify_reports_one_corrupt(tmp_path, capsys)


def test_store_get_detects_misfiled_artifacts(tmp_path, tiny_result) -> None:
    store = RunStore(tmp_path)
    key = run_key(tiny_result.config)
    other = run_key(tiny_result.config.with_updates(seed=999))
    path = store.put(key, tiny_result)
    misfiled = store.object_path(other)
    misfiled.parent.mkdir(parents=True, exist_ok=True)
    misfiled.write_text(path.read_text())
    with pytest.raises(StoreIntegrityError, match="records key"):
        store.get(other)


def test_store_put_never_leaves_temp_files(tmp_path, tiny_result) -> None:
    store = RunStore(tmp_path)
    store.put(run_key(tiny_result.config), tiny_result)
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
    assert leftovers == []


def test_store_gc_keeps_only_requested_keys(tmp_path, tiny_result) -> None:
    store = RunStore(tmp_path)
    keep_key = run_key(tiny_result.config)
    drop_key = run_key(tiny_result.config.with_updates(seed=2))
    store.put(keep_key, tiny_result)
    store.put(drop_key, tiny_result)
    # A stale temp file from a simulated crash is swept too.
    stale = store.object_path(keep_key).with_name("x.json.tmp.123")
    stale.write_text("partial")

    assert store.gc([keep_key, drop_key], dry_run=True) == []
    removed = store.gc([keep_key], dry_run=True)
    assert removed == [drop_key]
    assert store.has(drop_key)  # dry run removes nothing

    removed = store.gc([keep_key])
    assert removed == [drop_key]
    assert store.has(keep_key) and not store.has(drop_key)
    assert not stale.exists()


def test_a_half_written_temp_file_is_invisible_until_gc(tmp_path, tiny_result, capsys) -> None:
    store = RunStore(tmp_path)
    key = run_key(tiny_result.config)
    missing = run_key(tiny_result.config.with_updates(seed=2))
    text = store.put(key, tiny_result, meta={"campaign": "c"}).read_text()
    # Writers killed mid-put: one left half of an artifact the store lacks,
    # the other a truncated rewrite beside a complete artifact.
    half = store.object_path(missing).with_name(f"{missing}.json.tmp.4242")
    half.parent.mkdir(parents=True, exist_ok=True)
    half.write_text(text[: len(text) // 2])
    beside = store.object_path(key).with_name(f"{key}.json.tmp.4243")
    beside.write_text(text[:100])

    assert not store.has(missing)
    assert store.keys() == [key]
    assert store.metas() == {key: {"campaign": "c"}}
    assert main(["store", "verify", "--store", str(tmp_path)]) == 0
    assert "artifacts=1 ok=1 corrupt=0" in capsys.readouterr().out

    assert store.gc([key]) == []
    assert not half.exists() and not beside.exists()
    assert store.get(key) == replace(tiny_result, wallclock_s=0.0)


def _put_repeatedly(root, key, result, start, rounds: int) -> None:
    store = RunStore(root)
    start.wait()
    for _ in range(rounds):
        store.put(key, result, meta={"writer": os.getpid()})


def test_concurrent_puts_of_one_key_leave_one_verified_artifact(tmp_path, tiny_result) -> None:
    # Four writers racing 300 puts each.  Were the temp file shared between
    # writers, one writer's os.replace would find it gone: that fails here.
    key = run_key(tiny_result.config)
    context = multiprocessing.get_context("fork")
    start = context.Barrier(4)
    writers = [
        context.Process(target=_put_repeatedly, args=(tmp_path, key, tiny_result, start, 300))
        for _ in range(4)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
    assert not any(writer.is_alive() for writer in writers)
    assert [writer.exitcode for writer in writers] == [0] * 4

    store = RunStore(tmp_path)
    assert [path.name for path in store.object_path(key).parent.iterdir()] == [f"{key}.json"]
    assert store.get(key) == replace(tiny_result, wallclock_s=0.0)
    assert store.get_artifact(key)["meta"]["writer"] in {writer.pid for writer in writers}
