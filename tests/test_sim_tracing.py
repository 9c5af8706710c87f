"""Unit tests for trace sinks."""

from __future__ import annotations

import pytest

from repro.sim.tracing import NULL_SINK, RecordingTraceSink, TraceSink


def test_null_sink_is_disabled_and_silent() -> None:
    assert isinstance(NULL_SINK, TraceSink)
    assert not NULL_SINK.enabled
    NULL_SINK.emit(1.0, "anything", key="value")  # must not raise


def test_recording_sink_stores_events_by_name() -> None:
    sink = RecordingTraceSink()
    sink.emit(0.1, "drop", node="edge-0")
    sink.emit(0.2, "drop", node="core-1")
    sink.emit(0.3, "rto", flow_id=7)
    assert sink.count("drop") == 2
    assert sink.count("rto") == 1
    assert sink.count("missing") == 0
    assert len(sink.events) == 3
    assert sink.by_name["drop"][0].data["node"] == "edge-0"
    assert sink.events[2].time == 0.3


def test_recording_sink_clear() -> None:
    sink = RecordingTraceSink()
    sink.emit(0.1, "drop")
    sink.clear()
    assert sink.count("drop") == 0
    assert sink.events == []


def test_recording_sink_max_events_evicts_oldest_deterministically() -> None:
    sink = RecordingTraceSink(max_events=10)
    for index in range(25):
        sink.emit(index * 0.01, "drop" if index % 2 else "rto", index=index)
    assert sink.overflowed
    assert sink.events_dropped + len(sink.events) == 25
    assert len(sink.events) <= 2 * 10
    # Survivors are exactly the newest suffix, and the per-name index
    # matches the surviving event list.
    survivors = [event.data["index"] for event in sink.events]
    assert survivors == list(range(25 - len(survivors), 25))
    assert sink.count("drop") + sink.count("rto") == len(sink.events)
    for name, grouped in sink.by_name.items():
        assert all(event.name == name for event in grouped)
    # clear() resets the overflow latch too.
    sink.clear()
    assert not sink.overflowed
    assert sink.events_dropped == 0


def test_recording_sink_rejects_nonpositive_bounds() -> None:
    with pytest.raises(ValueError, match="max_events"):
        RecordingTraceSink(max_events=0)
