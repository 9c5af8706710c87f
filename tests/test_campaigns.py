"""Tests for resumable campaigns: spec round trips, cache-aware dispatch,
kill/resume semantics, artifact-backed reports and the campaign CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.experiments.parallel as parallel
from repro.campaigns import (
    CampaignIncompleteError,
    CampaignSpec,
    campaign_base_config,
    campaign_gc,
    campaign_report,
    campaign_rows,
    campaign_run_specs,
    campaign_status,
    load_campaign_cells,
    run_campaign,
)
from repro.cli import main
from repro.experiments.parallel import seeded_replications
from repro.metrics.collector import CELL_METRIC_FIELDS
from repro.scenarios import cell_rows
from repro.store import RunStore, run_key_for_spec
from support import campaign_document

#: Overrides that shrink every cell to a fraction of a second of simulation.
FAST_OVERRIDES = {
    "hosts_per_edge": 1,
    "arrival_window_s": 0.05,
    "drain_time_s": 0.8,
    "max_short_flows": 4,
    "long_flow_size_bytes": 300_000,
}


def _spec(**updates) -> CampaignSpec:
    kwargs = dict(
        name="test",
        scenarios=("baseline", "core-link-failure"),
        protocols=("tcp", "mmptcp"),
        config_overrides=FAST_OVERRIDES,
    )
    kwargs.update(updates)
    return CampaignSpec(**kwargs)


def _keys(spec: CampaignSpec) -> list:
    """The store key of every declared cell, in declared order."""
    return [run_key_for_spec(run_spec) for run_spec in campaign_run_specs(spec)]


# ---------------------------------------------------------------------------
# Spec validation and (de)serialisation
# ---------------------------------------------------------------------------


def test_spec_validation() -> None:
    with pytest.raises(ValueError, match="name"):
        _spec(name="")
    with pytest.raises(ValueError, match="scenario"):
        _spec(scenarios=())
    with pytest.raises(ValueError, match="protocol"):
        _spec(protocols=())
    with pytest.raises(ValueError, match="unknown protocol"):
        _spec(protocols=("quic",))
    with pytest.raises(ValueError, match="replications"):
        _spec(replications=0)
    with pytest.raises(ValueError, match="scale"):
        _spec(scale="huge")
    with pytest.raises(ValueError, match="campaign-managed"):
        _spec(sweeps=(("protocol", ("tcp",)),))
    with pytest.raises(ValueError, match="campaign-managed"):
        _spec(config_overrides={"seed": 3})
    with pytest.raises(ValueError, match="no values"):
        _spec(sweeps=(("num_subflows", ()),))


def test_spec_rejects_unknown_config_fields_on_both_axes() -> None:
    """Not a TypeError from dataclasses.replace once the grid is enumerated."""
    with pytest.raises(ValueError, match="num_subflowz"):
        _spec(sweeps=(("num_subflowz", (2, 4)),))
    with pytest.raises(ValueError, match="hosts_per_edg"):
        _spec(config_overrides={**FAST_OVERRIDES, "hosts_per_edg": 1})
    with pytest.raises(ValueError, match=r"\['a_typo', 'b_typo'\]"):
        _spec(sweeps=(("b_typo", (1,)),), config_overrides={"a_typo": 1})


def test_spec_dict_round_trip_and_unknown_keys() -> None:
    spec = _spec(sweeps=(("num_subflows", (2, 4)),), replications=2)
    assert CampaignSpec.from_dict(campaign_document(spec)) == spec
    with pytest.raises(ValueError, match="unknown campaign spec keys"):
        CampaignSpec.from_dict({**campaign_document(spec), "surprise": 1})
    with pytest.raises(ValueError, match="missing required"):
        CampaignSpec.from_dict({"name": "x"})


def test_spec_from_file(tmp_path) -> None:
    spec = _spec()
    path = tmp_path / "campaign.json"
    # repro: allow[no-raw-json] -- hand-written spec input, not an artifact
    path.write_text(json.dumps(campaign_document(spec)))
    assert CampaignSpec.from_file(path) == spec


def test_sweep_points_cross_in_declaration_order() -> None:
    spec = _spec(sweeps=(("num_subflows", (2, 4)), ("queue_capacity_packets", (50, 100))))
    assert spec.sweep_points() == [
        {"num_subflows": 2, "queue_capacity_packets": 50},
        {"num_subflows": 2, "queue_capacity_packets": 100},
        {"num_subflows": 4, "queue_capacity_packets": 50},
        {"num_subflows": 4, "queue_capacity_packets": 100},
    ]
    assert spec.cell_count() == 2 * 2 * 4 * 1


def test_base_config_applies_overrides() -> None:
    config = campaign_base_config(_spec(seed=7))
    assert config.seed == 7
    assert config.hosts_per_edge == 1
    assert config.max_short_flows == 4


# ---------------------------------------------------------------------------
# Cell enumeration
# ---------------------------------------------------------------------------


def test_run_specs_enumerate_in_declared_order_with_stable_keys() -> None:
    spec = _spec()
    run_specs = campaign_run_specs(spec)
    assert [rs.index for rs in run_specs] == [0, 1, 2, 3]
    assert [(rs.tag["scenario"], rs.tag["protocol"]) for rs in run_specs] == [
        ("baseline", "tcp"), ("baseline", "mmptcp"),
        ("core-link-failure", "tcp"), ("core-link-failure", "mmptcp"),
    ]
    # Replication 0 is spawn-seeded even for a single replication, so
    # extending the count later never changes existing cells' keys.
    expected_seed = seeded_replications(
        campaign_base_config(spec).with_updates(protocol="tcp"), 1
    )[0].seed
    assert all(rs.config.seed == expected_seed for rs in run_specs)
    assert all(rs.tag["replication"] == 0 for rs in run_specs)
    # Keys are distinct per cell and stable across enumerations.
    keys = [run_key_for_spec(rs) for rs in run_specs]
    assert len(set(keys)) == len(keys)
    assert _keys(spec) == keys


def test_replication_seeds_are_spawned_per_cell() -> None:
    spec = _spec(scenarios=("baseline",), protocols=("tcp",), replications=3)
    run_specs = campaign_run_specs(spec)
    assert [rs.tag["replication"] for rs in run_specs] == [0, 1, 2]
    cell_config = run_specs[0].config.with_updates(seed=spec.seed)
    expected = [c.seed for c in seeded_replications(cell_config, 3)]
    assert [rs.config.seed for rs in run_specs] == expected
    assert len(set(expected)) == 3


def test_extending_replications_preserves_existing_cell_keys() -> None:
    """The cache-extension guarantee: 1 -> 3 replications adds keys only."""
    one = _keys(_spec(replications=1))
    three = _keys(_spec(replications=3))
    assert set(one) <= set(three)
    assert len(three) == 3 * len(one)


# ---------------------------------------------------------------------------
# Cache-aware execution
# ---------------------------------------------------------------------------


def test_second_run_is_fully_cached_and_never_simulates(tmp_path, monkeypatch) -> None:
    spec = _spec()
    store = RunStore(tmp_path / "store")
    first = run_campaign(spec, store, workers=1)
    assert (first.cache_hits, first.simulated) == (0, 4)

    calls = []
    real_execute = parallel.execute_spec
    monkeypatch.setattr(
        parallel, "execute_spec", lambda rs: calls.append(rs) or real_execute(rs)
    )

    second = run_campaign(spec, store, workers=1)
    assert (second.cache_hits, second.simulated) == (4, 0)
    assert calls == []  # zero simulation work
    assert campaign_rows(first.cells) == campaign_rows(second.cells)


def test_fully_cached_run_skips_the_sweep_runner_entirely(tmp_path, monkeypatch) -> None:
    import repro.campaigns.runner as campaign_runner

    spec = _spec(scenarios=("baseline",), protocols=("tcp",))
    store = RunStore(tmp_path / "store")
    run_campaign(spec, store, workers=1)

    def _explode(*args, **kwargs):  # pragma: no cover - defensive
        raise AssertionError("cache hits must not reach the sweep runner")

    monkeypatch.setattr(campaign_runner, "SweepRunner", _explode)
    outcome = run_campaign(spec, store, workers=1)
    assert outcome.simulated == 0


def test_leftover_garbage_index_is_ignored_and_no_index_is_written(tmp_path) -> None:
    spec = _spec(scenarios=("baseline",))
    root = tmp_path / "store"
    store = RunStore(root)
    first = run_campaign(spec, store, workers=1)
    assert sorted(path.name for path in root.iterdir()) == ["objects"]

    # An index.json left behind by an older store layout, and not even JSON.
    leftover = root / "index.json"
    leftover.write_text("{garbage")
    second = run_campaign(spec, store, workers=1)
    assert (second.cache_hits, second.simulated) == (2, 0)
    assert campaign_rows(first.cells) == campaign_rows(second.cells)
    assert leftover.read_text() == "{garbage"
    assert sorted(path.name for path in root.iterdir()) == ["index.json", "objects"]
    # gc reads each artifact's meta, never the leftover.
    assert campaign_gc(spec, store) == []
    assert len(store.keys()) == 2


def test_parallel_and_serial_campaigns_are_byte_identical(tmp_path) -> None:
    spec = _spec()
    serial_store = RunStore(tmp_path / "serial")
    parallel_store = RunStore(tmp_path / "parallel")
    serial = run_campaign(spec, serial_store, workers=1)
    parallel_outcome = run_campaign(spec, parallel_store, workers=2)
    assert campaign_rows(serial.cells) == campaign_rows(parallel_outcome.cells)
    assert campaign_report(spec, serial_store) == campaign_report(spec, parallel_store)
    # The artifacts themselves are byte-identical too (wall-clock excluded).
    for key in _keys(spec):
        assert (
            serial_store.object_path(key).read_bytes()
            == parallel_store.object_path(key).read_bytes()
        )


def test_status_keys_every_cell_without_reading_an_artifact(tmp_path, monkeypatch) -> None:
    spec = _spec()
    store = RunStore(tmp_path / "store")
    run_campaign(_spec(scenarios=("baseline",)), store, workers=1)

    def _explode(*args, **kwargs):  # pragma: no cover - defensive
        raise AssertionError("campaign_status must not read artifacts")

    monkeypatch.setattr(store, "get", _explode)
    monkeypatch.setattr(store, "get_artifact", _explode)
    cells = campaign_status(spec, store)
    assert [cell.key for cell in cells] == _keys(spec)
    assert [cell.spec.index for cell in cells] == [0, 1, 2, 3]
    assert [cell.cached for cell in cells] == [True, True, False, False]
    assert all(cell.result is None for cell in cells)


def test_matrix_row_is_the_campaign_row_minus_params_and_replication(tmp_path) -> None:
    """One projection: the same (spec, result) under a matrix tag and a campaign tag."""
    spec = _spec(scenarios=("core-link-failure",), protocols=("mmptcp",),
                 sweeps=(("num_subflows", (2,)),))
    [cell] = run_campaign(spec, RunStore(tmp_path / "store"), workers=1).cells
    [campaign_row] = campaign_rows([cell])
    assert campaign_row == cell_rows(cell.spec, cell.result)[0]
    matrix_spec = dataclasses.replace(
        cell.spec, tag={"scenario": "core-link-failure", "protocol": "mmptcp"}
    )
    [matrix_row] = cell_rows(matrix_spec, cell.result)
    assert tuple(campaign_row) == (
        "scenario", "protocol", "params", "replication", "faults") + CELL_METRIC_FIELDS
    assert tuple(matrix_row) == ("scenario", "protocol", "faults") + CELL_METRIC_FIELDS
    assert (campaign_row["params"], campaign_row["replication"]) == ("num_subflows=2", 0)
    assert campaign_row["faults"] == 1
    assert matrix_row == {
        name: value for name, value in campaign_row.items()
        if name not in ("params", "replication")
    }


# ---------------------------------------------------------------------------
# Resume semantics (the acceptance scenario)
# ---------------------------------------------------------------------------


def test_killed_campaign_resumes_from_persisted_cells(tmp_path, monkeypatch) -> None:
    spec = _spec()
    store = RunStore(tmp_path / "store")

    real_execute = parallel.execute_spec
    executed = []

    def _dies_after_two(run_spec):
        if len(executed) == 2:
            raise RuntimeError("simulated kill -9 mid-matrix")
        executed.append(run_spec.index)
        return real_execute(run_spec)

    monkeypatch.setattr(parallel, "execute_spec", _dies_after_two)
    with pytest.raises(RuntimeError, match="kill"):
        run_campaign(spec, store, workers=1)

    # The two completed cells were persisted before the crash...
    assert [cell.cached for cell in campaign_status(spec, store)] == [True, True, False, False]
    with pytest.raises(CampaignIncompleteError, match="2 campaign cell"):
        load_campaign_cells(spec, store)

    # ...and the re-run resumes: completed cells are hits, the rest simulate.
    monkeypatch.setattr(parallel, "execute_spec", real_execute)
    resumed = run_campaign(spec, store, workers=1)
    assert (resumed.cache_hits, resumed.simulated) == (2, 2)
    assert [cell.cached for cell in resumed.cells] == [True, True, False, False]

    # The final report is byte-identical to an uninterrupted campaign's.
    clean_store = RunStore(tmp_path / "clean")
    run_campaign(spec, clean_store, workers=1)
    assert campaign_report(spec, store) == campaign_report(spec, clean_store)


# ---------------------------------------------------------------------------
# Reports, sweeps, gc
# ---------------------------------------------------------------------------


def test_report_structure_and_determinism(tmp_path) -> None:
    spec = _spec()
    store = RunStore(tmp_path / "store")
    run_campaign(spec, store, workers=1)
    report = campaign_report(spec, store)
    assert report.startswith("# Campaign report — test")
    assert "## Per-cell results" in report
    assert "## Per-scenario deltas vs tcp" in report
    assert "core-link-failure" in report
    assert campaign_report(spec, store) == report  # regeneration is pure


def test_report_requires_every_cell(tmp_path) -> None:
    spec = _spec(scenarios=("baseline",), protocols=("tcp",))
    store = RunStore(tmp_path / "store")
    with pytest.raises(CampaignIncompleteError, match="baseline/tcp"):
        campaign_report(spec, store)


def test_sweep_axis_clashing_with_scenario_overrides_is_rejected() -> None:
    """'oversubscribed-core' pins core_oversubscription, so sweeping that
    field would silently collapse every sweep point into one config."""
    spec = _spec(
        scenarios=("oversubscribed-core",),
        protocols=("tcp",),
        sweeps=(("core_oversubscription", (1.0, 2.0, 4.0)),),
    )
    with pytest.raises(ValueError, match="core_oversubscription.*oversubscribed-core"):
        campaign_run_specs(spec)


def test_sweep_axis_produces_distinct_labelled_cells(tmp_path) -> None:
    spec = _spec(
        scenarios=("baseline",),
        protocols=("mmptcp",),
        sweeps=(("num_subflows", (2, 4)),),
    )
    store = RunStore(tmp_path / "store")
    outcome = run_campaign(spec, store, workers=1)
    rows = campaign_rows(outcome.cells)
    assert [row["params"] for row in rows] == ["num_subflows=2", "num_subflows=4"]
    assert outcome.cells[0].result.config.num_subflows == 2
    assert outcome.cells[1].result.config.num_subflows == 4
    # No delta section: sweep grids have no unique scenario/protocol cell.
    report = campaign_report(spec, store)
    assert "deltas" not in report
    assert "num_subflows ∈ [2, 4]" in report


def test_gc_reclaims_cells_dropped_from_the_spec(tmp_path) -> None:
    wide = _spec()
    narrow = _spec(scenarios=("baseline",))
    store = RunStore(tmp_path / "store")
    run_campaign(wide, store, workers=1)
    assert len(store.keys()) == 4
    assert campaign_gc(wide, store, dry_run=True) == []
    removed = campaign_gc(narrow, store)
    assert len(removed) == 2
    assert len(store.keys()) == 2
    # The surviving cells still satisfy the narrow campaign.
    assert all(cell.cached for cell in campaign_status(narrow, store))


def test_cache_hits_claim_cells_so_gc_cannot_strand_a_sharing_campaign(tmp_path) -> None:
    """The review scenario: A simulates X, B hits X from cache, A shrinks
    and collects — X must survive because B (the most recent user) claimed
    it when it hit."""
    a = _spec(name="a", scenarios=("baseline",), protocols=("tcp",))
    b = _spec(name="b", scenarios=("baseline",), protocols=("tcp", "mmptcp"))
    store = RunStore(tmp_path / "store")
    run_campaign(a, store, workers=1)       # simulates X with label "a"
    run_campaign(b, store, workers=1)       # hits X -> durably relabels it "b"
    # The claim lives in the artifact itself.
    x_key = campaign_status(a, store)[0].key
    assert store.get_artifact(x_key)["meta"]["campaign"] == "b"
    shrunk_a = _spec(name="a", scenarios=("core-link-failure",), protocols=("tcp",))
    run_campaign(shrunk_a, store, workers=1)
    assert campaign_gc(shrunk_a, store) == []   # X now belongs to b
    assert all(cell.cached for cell in campaign_status(b, store))
    # A same-campaign cache hit rewrites nothing (labels already match).
    before = {key: store.object_path(key).stat().st_mtime_ns for key in store.keys()}
    run_campaign(b, store, workers=1)
    after = {key: store.object_path(key).stat().st_mtime_ns for key in store.keys()}
    assert before == after


def test_gc_never_touches_other_campaigns_in_a_shared_store(tmp_path) -> None:
    mine = _spec(name="mine", scenarios=("baseline",), protocols=("tcp",))
    theirs = _spec(name="theirs", scenarios=("baseline",), protocols=("mmptcp",))
    store = RunStore(tmp_path / "store")
    run_campaign(mine, store, workers=1)
    run_campaign(theirs, store, workers=1)
    assert len(store.keys()) == 2
    # 'mine' shrinks to nothing it previously ran; gc with an unrelated
    # grid must not collect 'theirs' even though its key is undeclared.
    shrunk = _spec(name="mine", scenarios=("core-link-failure",), protocols=("tcp",))
    assert campaign_gc(shrunk, store, dry_run=True) != []
    removed = campaign_gc(shrunk, store)
    assert len(removed) == 1
    assert all(cell.cached for cell in campaign_status(theirs, store))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cli_grid_args(store) -> list:
    return [
        "--store", str(store),
        "--scenarios", "baseline",
        "--transports", "tcp",
    ]


def test_cli_campaign_run_status_report_gc(tmp_path, capsys) -> None:
    store = tmp_path / "store"
    spec_file = tmp_path / "campaign.json"
    spec = _spec(scenarios=("baseline",), protocols=("tcp",))
    # repro: allow[no-raw-json] -- hand-written spec input, not an artifact
    spec_file.write_text(json.dumps(campaign_document(spec)))
    report_file = tmp_path / "report.md"

    assert main(["campaign", "run", "--store", str(store), "--spec", str(spec_file),
                 "--report", str(report_file)]) == 0
    out = capsys.readouterr().out
    assert "cells=1 cache_hits=0 simulated=1" in out
    assert report_file.exists()
    first_report = report_file.read_bytes()

    assert main(["campaign", "run", "--store", str(store), "--spec", str(spec_file),
                 "--report", str(report_file)]) == 0
    out = capsys.readouterr().out
    assert "cells=1 cache_hits=1 simulated=0" in out
    assert report_file.read_bytes() == first_report

    assert main(["campaign", "status", "--store", str(store), "--spec", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert "cells=1 stored=1 missing=0" in out

    output = tmp_path / "regenerated.md"
    assert main(["campaign", "report", "--store", str(store), "--spec", str(spec_file),
                 "--output", str(output)]) == 0
    capsys.readouterr()
    assert output.read_bytes() == first_report

    assert main(["campaign", "gc", "--store", str(store), "--spec", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert "removed 0 artifact(s)" in out


def test_cli_campaign_report_before_run_fails_cleanly(tmp_path, capsys) -> None:
    code = main(["campaign", "report"] + _cli_grid_args(tmp_path / "store"))
    captured = capsys.readouterr()
    assert code == 2
    assert "missing from the store" in captured.err


def test_cli_campaign_unknown_scenario_fails_cleanly(tmp_path, capsys) -> None:
    code = main(["campaign", "run", "--store", str(tmp_path / "store"),
                 "--scenarios", "no-such-scenario", "--transports", "tcp"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no-such-scenario" in captured.err


def test_cli_campaign_missing_spec_file_fails_cleanly(tmp_path, capsys) -> None:
    code = main(["campaign", "status", "--store", str(tmp_path / "store"),
                 "--spec", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "campaign command failed" in captured.err


def test_cli_campaign_corrupt_artifact_fails_cleanly(tmp_path, capsys) -> None:
    spec = _spec(scenarios=("baseline",), protocols=("tcp",))
    spec_file = tmp_path / "campaign.json"
    # repro: allow[no-raw-json] -- hand-written spec input, not an artifact
    spec_file.write_text(json.dumps(campaign_document(spec)))
    store_dir = tmp_path / "store"
    assert main(["campaign", "run", "--store", str(store_dir),
                 "--spec", str(spec_file)]) == 0
    capsys.readouterr()
    # Corrupt the single artifact, then hit it through every command.
    store = RunStore(store_dir)
    [key] = store.keys()
    store.object_path(key).write_text("{definitely not json")
    for sub in (["run"], ["report"]):
        code = main(["campaign", *sub, "--store", str(store_dir),
                     "--spec", str(spec_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert "campaign command failed" in captured.err
