"""Lightweight tracing hooks for the network and fault layers.

Nodes, hosts, the fault injector and the fluid fabric publish named trace
events (packet dropped, link down, host migrated, ...) to a
:class:`TraceSink`.  The default sink discards everything at near-zero
cost; tests install a :class:`RecordingTraceSink` to observe internal
behaviour without the components needing to know who is listening.
Transport endpoints do not trace: their milestones (RTOs, fast
retransmits, phase switches) are :mod:`repro.obs.telemetry` probes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, DefaultDict, Dict, Iterable, List, Optional


@dataclass
class TraceEvent:
    """A single trace record."""

    time: float
    name: str
    data: Dict[str, Any] = field(default_factory=dict)


class TraceSink:
    """Base sink: ignores every event.  Subclass to observe."""

    enabled: bool = False

    def emit(self, time: float, name: str, **data: Any) -> None:
        """Record a trace event; the base implementation is a no-op."""


class RecordingTraceSink(TraceSink):
    """A sink that stores every event in memory, grouped by name.

    ``max_events`` bounds memory for long recordings (flow-level runs can
    emit millions of events): once the log exceeds the bound, the *oldest*
    events are evicted — deterministically, in amortised O(1) batches — and
    :attr:`overflowed` latches so consumers know the record is a suffix,
    not the whole run.  The default (``None``) keeps everything, which is
    what the golden-trace tests rely on.
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be a positive count (or None)")
        self.enabled = True
        self.max_events = max_events
        self.overflowed = False
        self.events_dropped = 0
        self.events: List[TraceEvent] = []
        self.by_name: DefaultDict[str, List[TraceEvent]] = defaultdict(list)

    def emit(self, time: float, name: str, **data: Any) -> None:
        event = TraceEvent(time=time, name=name, data=data)
        events = self.events
        events.append(event)
        self.by_name[name].append(event)
        # Amortised batch eviction: let the log grow to twice the bound,
        # then cut the oldest half in one slice and rebuild the per-name
        # index from the survivors.  Which events survive depends only on
        # the emitted sequence, never on timing.
        max_events = self.max_events
        if max_events is not None and len(events) > 2 * max_events:
            excess = len(events) - max_events
            del events[:excess]
            self.events_dropped += excess
            self.overflowed = True
            self.by_name.clear()
            for survivor in events:
                self.by_name[survivor.name].append(survivor)

    def count(self, name: str) -> int:
        """Number of events recorded under ``name`` (post-eviction)."""
        return len(self.by_name[name])

    def clear(self) -> None:
        """Forget all recorded events (the overflow latch too)."""
        self.events.clear()
        self.by_name.clear()
        self.overflowed = False
        self.events_dropped = 0


NULL_SINK = TraceSink()


# ---------------------------------------------------------------------------
# Canonical serialisation (golden-trace regression tests)
# ---------------------------------------------------------------------------


def canonical_event_line(event: TraceEvent) -> str:
    """One deterministic text line for ``event``.

    Floats are rendered with ``repr`` (shortest round-trip form — stable
    across platforms and Python versions since 3.1) and data keys are
    sorted, so the same event always produces the same bytes.
    """
    parts = [repr(event.time), event.name]
    parts.extend(f"{key}={event.data[key]!r}" for key in sorted(event.data))
    return " ".join(parts)


def canonical_trace(events: Iterable[TraceEvent]) -> str:
    """The whole event sequence as one canonical text blob.

    Golden-trace tests record this for a reference run and assert
    byte-for-byte equality after refactors: any change to event timing,
    ordering, naming or payload shows up as a diff rather than as a silent
    behaviour drift.
    """
    return "".join(canonical_event_line(event) + "\n" for event in events)
