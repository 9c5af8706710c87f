"""Tests for :mod:`repro.obs` — the deterministic telemetry layer.

Covers the recorder data model (group filtering, stride-doubling series,
bounded event logs), the two non-negotiables of the tentpole — metrics and
golden traces are byte-identical with probes attached, and telemetry itself
is byte-identical across repeat runs and worker counts — plus the profiler
diagnostics exclusion from every store surface, the Chrome trace export,
and the CLI wiring.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.campaigns import CampaignSpec, run_campaign
from repro.cli import main
from repro.experiments.parallel import RunSpec, SweepRunner
from repro.experiments.runner import run_experiment
from repro.obs import (
    NULL_PROBES,
    SeriesBuffer,
    TelemetryRecorder,
    chrome_trace_document,
    make_recorder,
    probe_groups_argument,
    telemetry_jsonl,
    telemetry_records,
)
from repro.obs.telemetry import TRACE_EVENT_KEEP
from repro.scenarios.spec import tiny_config
from repro.store import RunStore, StoreError, result_to_dict, run_key_for_spec
from support import RecordingProbes, golden_link_failure_config, golden_migration_config


def _fast_config(**overrides):
    """A sub-second config so every simulation-backed test stays cheap."""
    defaults = dict(
        hosts_per_edge=1,
        arrival_window_s=0.05,
        drain_time_s=0.6,
        max_short_flows=3,
        long_flow_size_bytes=200_000,
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


# ---------------------------------------------------------------------------
# Recorder data model
# ---------------------------------------------------------------------------


def test_null_probes_are_disabled_noops() -> None:
    assert not NULL_PROBES.enabled
    NULL_PROBES.count("transport.rto_fired")
    NULL_PROBES.sample("transport.cwnd/f1", 0.1, 10.0)
    NULL_PROBES.event("transport.rto", 0.1, flow_id=1)  # must not raise


def test_recorder_counts_samples_and_filters_by_group() -> None:
    recorder = TelemetryRecorder(groups=("transport",))
    assert recorder.enabled
    recorder.count("transport.rto_fired")
    recorder.count("transport.rto_fired", 2)
    recorder.sample("transport.cwnd/f1.sf0", 0.1, 10.0)
    recorder.event("transport.rto", 0.2, flow_id=3)
    # Unsubscribed groups are dropped at the recorder.
    recorder.count("scheduler.grants")
    recorder.sample("fluid.active_flows", 0.1, 5.0)
    recorder.event("phase.switch", 0.2, flow_id=3)
    assert recorder.counters == {"transport.rto_fired": 3}
    assert list(recorder.series) == ["transport.cwnd/f1.sf0"]
    assert [name for _, name, _ in recorder.events] == ["transport.rto"]


def test_recorder_all_groups_wildcard_and_unknown_groups() -> None:
    recorder = TelemetryRecorder(groups=("all",))
    recorder.count("scheduler.grants")
    recorder.count("fluid.recomputes")
    assert set(recorder.counters) == {"scheduler.grants", "fluid.recomputes"}
    with pytest.raises(ValueError, match="unknown probe group"):
        TelemetryRecorder(groups=("transport", "nope"))
    with pytest.raises(ValueError, match="unknown probe group"):
        probe_groups_argument(["bogus"])
    assert probe_groups_argument(["transport", "all", "transport"]) == ("all", "transport")
    assert make_recorder(()) is None
    assert make_recorder(None) is None


def test_series_buffer_stride_doubling_is_deterministic() -> None:
    first = SeriesBuffer("s", max_samples=8)
    second = SeriesBuffer("s", max_samples=8)
    points = [(i * 0.01, float(i)) for i in range(200)]
    for time_s, value in points:
        first.add(time_s, value)
        second.add(time_s, value)
    # Bounded, identical across repeats, first sample retained forever.
    assert len(first.samples) < 8
    assert first.samples == second.samples
    assert first.stride == second.stride
    assert first.offered == 200
    assert first.samples[0] == (0.0, 0.0)
    # The retained set is an order-preserving subsequence of the offered one.
    retained = [value for _, value in first.samples]
    assert retained == sorted(retained)
    assert set(first.samples) <= set(points)
    with pytest.raises(ValueError, match="at least 2"):
        SeriesBuffer("s", max_samples=1)


def test_recorder_event_log_evicts_oldest_and_latches_overflow() -> None:
    recorder = TelemetryRecorder(groups=("all",), max_events=10)
    for index in range(25):
        recorder.event("faults.link_down", index * 0.01, index=index)
    assert recorder.overflowed
    assert recorder.events_dropped + len(recorder.events) == 25
    assert len(recorder.events) <= 2 * recorder.max_events
    # Oldest-first: the survivors are exactly the newest suffix.
    survivor_indices = [data["index"] for _, _, data in recorder.events]
    assert survivor_indices == list(range(25 - len(survivor_indices), 25))
    # The header advertises the truncation.
    header = telemetry_records(recorder)[0]
    assert header["overflowed"] is True
    assert header["events_dropped"] == recorder.events_dropped


# ---------------------------------------------------------------------------
# The two tentpole invariants
# ---------------------------------------------------------------------------


def test_probes_leave_traces_and_metrics_byte_identical() -> None:
    """Attaching a recorder must not perturb the simulation: every metric
    and the event count are byte-identical.  (The golden traces themselves
    are recorded through probes, so they pin the same invariant.)"""
    config = _fast_config(protocol="mmptcp")
    bare = run_experiment(config)
    recorder = TelemetryRecorder(groups=("all",))
    probed = run_experiment(config, probes=recorder)
    assert probed.metrics.summary_dict() == bare.metrics.summary_dict()
    assert probed.events_processed == bare.events_processed
    # ... and the recorder actually observed the run.
    assert recorder.counters["scheduler.grants"] > 0
    assert recorder.counters["phase.switches"] > 0
    assert any(name.startswith("transport.cwnd/") for name in recorder.series)


@pytest.mark.parametrize(
    "config_builder",
    [golden_link_failure_config, golden_migration_config],
    ids=["linkfail", "migration"],
)
def test_recorder_and_probe_fake_see_the_same_trace_stream(config_builder) -> None:
    """One ``observe_trace`` hook, two consumers: the recorder's
    ``trace.<name>`` counters are the fake's per-name counts, and its
    ``faults.*`` events are the fake's ``TRACE_EVENT_KEEP`` entries, in order
    and with equal data."""
    config = config_builder()
    recorder = TelemetryRecorder(groups=("all",))
    run_experiment(config, probes=recorder)
    fake = RecordingProbes()
    run_experiment(config, probes=fake)

    traced = {
        name[len("trace."):]: value
        for name, value in recorder.counters.items()
        if name.startswith("trace.")
    }
    assert traced == Counter(event.name for event in fake.events)
    kept = [
        (event.time, f"faults.{event.name}", event.data)
        for event in fake.events
        if event.name in TRACE_EVENT_KEEP
    ]
    assert kept  # the fault (and, for migration, the re-attach) is there
    assert [entry for entry in recorder.events if entry[1].startswith("faults.")] == kept


def test_transport_probes_agree_with_the_flow_records_they_shadow() -> None:
    """Probes are the endpoints' one observation channel, so their counts
    must be the same numbers the flow records report: RTOs (counter, event
    and ``rto_events``), fast retransmits and phase switches."""
    # Shallow queues under a dozen flows: every quantity below is nonzero
    # for at least one protocol, so no equality holds vacuously.
    config = _fast_config(
        hosts_per_edge=2,
        queue_capacity_packets=8,
        max_short_flows=6,
        long_flow_size_bytes=300_000,
    )
    totals = {"rto": 0, "fast_retransmit": 0, "switches": 0}
    for protocol in ("tcp", "mptcp", "mmptcp"):
        recorder = TelemetryRecorder(groups=("all",))
        result = run_experiment(config.with_updates(protocol=protocol), probes=recorder)
        flows = result.metrics.flows
        counters = recorder.counters
        assert not recorder.overflowed
        rto_events = sum(1 for _, name, _ in recorder.events if name == "transport.rto")
        rtos = sum(flow.rto_events for flow in flows)
        assert counters.get("transport.rto_fired", 0) == rtos == rto_events, protocol
        fast_retransmits = sum(flow.fast_retransmits for flow in flows)
        assert counters.get("transport.fast_retransmit", 0) == fast_retransmits, protocol
        switches = sum(1 for flow in flows if flow.switch_time is not None)
        assert counters.get("phase.switches", 0) == switches, protocol
        totals["rto"] += rtos
        totals["fast_retransmit"] += fast_retransmits
        totals["switches"] += switches
    assert all(totals.values()), totals


def test_repeat_runs_render_byte_identical_telemetry() -> None:
    config = _fast_config(protocol="mmptcp")
    documents = []
    for _ in range(2):
        recorder = TelemetryRecorder(groups=("all",))
        run_experiment(config, probes=recorder)
        documents.append(telemetry_jsonl(telemetry_records(recorder)))
    assert documents[0] == documents[1]
    assert documents[0].endswith("\n")
    # Every line parses and carries a kind.
    kinds = {json.loads(line)["kind"] for line in documents[0].splitlines()}
    assert {"header", "counter", "series", "event"} <= kinds


def test_telemetry_is_identical_across_worker_counts() -> None:
    base = _fast_config()
    specs = [
        RunSpec(index=index, config=base.with_updates(protocol=protocol), probes=("all",))
        for index, protocol in enumerate(("tcp", "mmptcp"))
    ]
    serial = SweepRunner(1).run(specs)
    pooled = SweepRunner(2).run(specs)
    for one, two in zip(serial, pooled):
        assert one.telemetry is not None
        assert telemetry_jsonl(one.telemetry) == telemetry_jsonl(two.telemetry)


# ---------------------------------------------------------------------------
# Profiler diagnostics: the sanctioned wall-clock island
# ---------------------------------------------------------------------------


def test_profile_diagnostics_shape_and_store_exclusion() -> None:
    config = _fast_config()
    result = run_experiment(config, profile=True)
    diagnostics = result.diagnostics
    assert diagnostics is not None
    assert diagnostics["events_processed"] == result.events_processed
    assert diagnostics["wallclock_s"] >= 0.0
    assert diagnostics["us_per_event"] >= 0.0
    assert diagnostics["handlers"] and sum(diagnostics["handlers"].values()) == (
        result.events_processed
    )
    assert set(diagnostics["engine"]) == {
        "heap_compactions", "heap_refiles", "heap_dead_entries", "heap_size"
    }
    assert diagnostics["packet_pool"]["allocated"] >= 0
    # The storable payload carries no diagnostics and no telemetry: the
    # profiler is wall-clock-bearing, so it must never reach an artifact.
    payload = result_to_dict(result)
    assert set(payload) == {
        "config", "metrics", "events_processed", "wallclock_s", "workload_size"
    }


def test_run_key_ignores_probes_and_profile() -> None:
    config = _fast_config()
    plain = RunSpec(index=0, config=config)
    probed = RunSpec(index=0, config=config, probes=("all",), profile=True)
    assert run_key_for_spec(probed) == run_key_for_spec(plain)


def test_unprofiled_run_has_no_diagnostics() -> None:
    result = run_experiment(_fast_config())
    assert result.diagnostics is None
    assert result.telemetry is None


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


def _small_recorder() -> TelemetryRecorder:
    recorder = TelemetryRecorder(groups=("all",))
    recorder.count("transport.rto_fired", 2)
    recorder.sample("transport.cwnd/flow1.sf0", 0.01, 10.0)
    recorder.sample("transport.cwnd/flow1.sf0", 0.02, 12.0)
    recorder.sample("fluid.active_flows", 0.01, 3.0)
    recorder.event("transport.rto", 0.015, flow_id=1, subflow_id=0)
    recorder.event("faults.link_down", 0.02, node="core-0")
    return recorder


def test_chrome_trace_document_structure_and_determinism() -> None:
    records = telemetry_records(
        _small_recorder(), diagnostics={"wallclock_s": 1.25}
    )
    document = chrome_trace_document(records)
    assert chrome_trace_document(records) == document  # pure function
    events = document["traceEvents"]
    metadata = [event for event in events if event["ph"] == "M"]
    counters = [event for event in events if event["ph"] == "C"]
    instants = [event for event in events if event["ph"] == "i"]
    # One thread_name per track, emitted first, tids dense from 1 in
    # sorted-label order.
    labels = [event["args"]["name"] for event in metadata]
    assert labels == sorted(labels)
    assert [event["tid"] for event in metadata] == list(range(1, len(labels) + 1))
    assert events[: len(metadata)] == metadata
    # Series samples -> counter events at simulated microseconds.
    assert len(counters) == 3
    assert counters[0]["ts"] == pytest.approx(0.01 * 1e6)
    # Probe events -> instants on the track derived from their payload.
    assert {event["name"] for event in instants} == {
        "transport.rto", "faults.link_down"
    }
    by_name = {event["name"]: event for event in instants}
    tid_of = {label: tid + 1 for tid, label in enumerate(labels)}
    assert by_name["transport.rto"]["tid"] == tid_of["flow1.sf0"]
    assert by_name["faults.link_down"]["tid"] == tid_of["core-0"]
    # Counters, header and diagnostics ride along in otherData.
    assert document["otherData"]["counters"]["transport.rto_fired"] == 2
    assert document["otherData"]["telemetry_header"]["schema"] == 1
    assert document["otherData"]["diagnostics"] == {"wallclock_s": 1.25}


def test_telemetry_jsonl_chrome_round_trip(tmp_path) -> None:
    """JSONL written by the recorder converts through the CLI exporter."""
    jsonl = tmp_path / "run.telemetry.jsonl"
    jsonl.write_text(telemetry_jsonl(telemetry_records(_small_recorder())))
    output = tmp_path / "run.trace.json"
    assert main(["trace", "export", str(jsonl), "--output", str(output)]) == 0
    document = json.loads(output.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert any(event["ph"] == "C" for event in document["traceEvents"])
    # Byte-stable: exporting again writes identical bytes.
    first = output.read_bytes()
    assert main(["trace", "export", str(jsonl), "--output", str(output)]) == 0
    assert output.read_bytes() == first


def test_trace_export_rejects_missing_and_malformed_input(tmp_path, capsys) -> None:
    out = str(tmp_path / "out.json")
    assert main(["trace", "export", str(tmp_path / "missing.jsonl"), "--output", out]) == 2
    assert "trace export failed" in capsys.readouterr().err
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "header"}\nnot json\n')
    assert main(["trace", "export", str(bad), "--output", out]) == 2
    assert "bad.jsonl:2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


def test_cli_run_telemetry_out_requires_probes_or_profile(tmp_path, capsys) -> None:
    code = main([
        "run", "--scale", "quick",
        "--telemetry-out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 2
    assert "--telemetry-out needs --probes" in capsys.readouterr().err


def test_cli_store_gc_dry_run_previews_the_sweep(tmp_path, capsys) -> None:
    import os

    store = RunStore(tmp_path / "store")
    result = run_experiment(_fast_config())
    for index, key in enumerate(["a" * 64, "b" * 64, "c" * 64]):
        store.put(key, result)
        # Deterministic, distinct mtimes so LRU order is fixed.
        path = store.object_path(key)
        os.utime(path, ns=(1_000_000_000 * (index + 1),) * 2)
    size = store.object_path("a" * 64).stat().st_size
    budget = 2 * size + size // 2  # forces exactly one eviction
    # dry-run gc names the victim without deleting anything
    assert main(["store", "gc", "--store", str(tmp_path / "store"),
                 "--budget", str(budget), "--dry-run"]) == 0
    assert f"would evict {'a' * 64}" in capsys.readouterr().out
    assert store.has("a" * 64)
    # the real sweep evicts exactly the previewed key
    assert main(["store", "gc", "--store", str(tmp_path / "store"),
                 "--budget", str(budget)]) == 0
    assert f"evicted {'a' * 64}" in capsys.readouterr().out
    assert not store.has("a" * 64)
    assert store.has("b" * 64) and store.has("c" * 64)
    # under budget: nothing to do
    assert store.gc_budget(10 * size) == []
    with pytest.raises(StoreError, match="non-negative"):
        store.gc_budget(-1)


# ---------------------------------------------------------------------------
# Campaign progress events
# ---------------------------------------------------------------------------


def _campaign_spec() -> CampaignSpec:
    return CampaignSpec(
        name="obs",
        scenarios=("baseline",),
        protocols=("tcp",),
        config_overrides={
            "hosts_per_edge": 1,
            "arrival_window_s": 0.05,
            "drain_time_s": 0.6,
            "max_short_flows": 3,
            "long_flow_size_bytes": 200_000,
        },
    )


def test_campaign_emits_structured_progress_events(tmp_path) -> None:
    spec = _campaign_spec()
    store = RunStore(tmp_path / "store")
    events = []
    run_campaign(spec, store, events=events.append)
    names = [event["event"] for event in events]
    assert names == ["campaign_start", "cell_start", "cell_finish", "campaign_finish"]
    start, cell_start, cell_finish, finish = events
    assert start["campaign"] == "obs" and start["cells"] == 1
    assert cell_start["scenario"] == "baseline" and cell_start["protocol"] == "tcp"
    assert cell_finish["key"] == cell_start["key"]
    assert cell_finish["events_processed"] > 0
    # Wall-clock stays quarantined under the diagnostics key.
    assert set(cell_finish["diagnostics"]) == {"wallclock_s"}
    assert finish["cache_hits"] == 0 and finish["simulated"] == 1
    # Second run: every cell is a cache hit, no cell_start/cell_finish.
    events.clear()
    run_campaign(spec, store, events=events.append)
    assert [event["event"] for event in events] == [
        "campaign_start", "cell_hit", "campaign_finish"
    ]
    assert events[2]["cache_hits"] == 1 and events[2]["simulated"] == 0
