"""Run-scoped telemetry probes: counters, gauges and simulated-time series.

The observability layer's data model.  A :class:`TelemetryRecorder` is the
enabled implementation of the :class:`TelemetryProbes` interface; the
module-level :data:`NULL_PROBES` singleton is the disabled one, installed as
a *class attribute* on every instrumented component so the unprobed common
case costs one attribute read and a falsy check — never per-instance
storage, never a method call.  Probes are the simulator's one observation
channel: transport endpoints, hosts, switches, the fault injector and the
fluid fault applier all report through them, and an interface samples its
queue's occupancy into its node's probes (``queue.packets/<interface>``).
The network and fault layers use the single
:meth:`TelemetryProbes.observe_trace` hook for their named events
(``packet_drop``, ``link_down``, ``migrate_host``, ...).

Everything a recorder stores is keyed on **simulated** time and fed only by
deterministic call sites, so two runs of the same config produce
byte-identical telemetry whatever the worker count.  Wall-clock material is
confined to the separate ``diagnostics`` record assembled by
:mod:`repro.obs.profiler` and is never part of a byte-compare surface.

Memory is bounded without randomness:

* time series use **stride doubling** — keep every sample until the buffer
  is full, then drop every other retained sample and double the keep
  stride.  The retained set is a pure function of the offered sequence, so
  repeat runs downsample identically.
* the event log evicts **oldest first** in amortised batches and raises an
  ``overflowed`` flag instead of growing without bound.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.export import dumps_deterministic

#: Telemetry schema version, stamped into every header record.
TELEMETRY_SCHEMA = 1

#: Probe groups a recorder can subscribe to.  A probe name is
#: ``<group>.<metric>`` (optionally ``/<track>`` for per-entity series);
#: the group is everything before the first dot.
PROBE_GROUPS = (
    "faults",
    "fluid",
    "phase",
    "queue",
    "scheduler",
    "trace",
    "transport",
)

#: The wildcard accepted by ``--probes`` and :class:`TelemetryRecorder`.
ALL_GROUPS = "all"


def probe_groups_argument(values: Sequence[str]) -> Tuple[str, ...]:
    """Validate ``--probes`` / recorder groups into a sorted, deduplicated tuple."""
    unknown = sorted(set(values) - set(PROBE_GROUPS) - {ALL_GROUPS})
    if unknown:
        raise ValueError(
            f"unknown probe group(s) {', '.join(unknown)}; "
            f"known: {', '.join(PROBE_GROUPS)} (or '{ALL_GROUPS}')"
        )
    return tuple(sorted(set(values)))


#: ``observe_trace`` events worth keeping as full telemetry events (fault
#: applications and mobility).  Every other observed name is still
#: *counted* under ``trace.<name>`` but not stored, so a drop-heavy run
#: cannot evict the interesting events.  Only network and fault events go
#: through ``observe_trace``: transport milestones are probes of their own
#: (``transport.*``, ``phase.*``).
TRACE_EVENT_KEEP = frozenset(
    {
        "degrade",
        "host_attached",
        "link_down",
        "link_up",
        "migrate_host",
        "restore",
    }
)


class TelemetryProbes:
    """Disabled probe interface: every hook is a no-op.

    Instrumented hot paths guard with ``if probes.enabled:`` before calling
    any hook, so the disabled cost is a single attribute check.
    """

    enabled: bool = False

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named monotonic counter."""

    def sample(self, name: str, time_s: float, value: float) -> None:
        """Append one (simulated time, value) point to the named series."""

    def event(self, name: str, time_s: float, **data: Any) -> None:
        """Record one discrete probe event at simulated ``time_s``."""

    def observe_trace(self, time_s: float, name: str, **data: Any) -> None:
        """Report one named network or fault event at simulated ``time_s``."""


#: The shared disabled singleton (class-attribute default everywhere).
NULL_PROBES = TelemetryProbes()


class SeriesBuffer:
    """A bounded time series with deterministic stride-doubling decimation."""

    __slots__ = ("name", "max_samples", "stride", "offered", "samples", "_skip")

    def __init__(self, name: str, max_samples: int) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        self.name = name
        self.max_samples = max_samples
        self.stride = 1
        self.offered = 0
        self.samples: List[Tuple[float, float]] = []
        self._skip = 0

    def add(self, time_s: float, value: float) -> None:
        self.offered += 1
        if self._skip:
            self._skip -= 1
            return
        samples = self.samples
        samples.append((time_s, value))
        if len(samples) >= self.max_samples:
            # Keep the even-indexed half (the first sample survives forever)
            # and double the stride: the retained set depends only on the
            # offered sequence, never on memory pressure or timing.
            del samples[1::2]
            self.stride *= 2
        self._skip = self.stride - 1


class TelemetryRecorder(TelemetryProbes):
    """The enabled probe sink: a registry of counters, series and events.

    ``groups`` selects which probe groups are recorded (``("all",)``
    records everything); names outside the subscription are dropped at the
    recorder, so call sites never need to know the configuration.
    """

    enabled = True

    def __init__(
        self,
        groups: Sequence[str] = (ALL_GROUPS,),
        max_samples_per_series: int = 512,
        max_events: int = 4096,
    ) -> None:
        self.groups = probe_groups_argument(groups)
        self._all = ALL_GROUPS in self.groups
        self._group_set = frozenset(self.groups)
        self.max_samples_per_series = max_samples_per_series
        self.max_events = max_events
        self.counters: Dict[str, int] = {}
        self.series: Dict[str, SeriesBuffer] = {}
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []
        self.events_dropped = 0
        self.overflowed = False

    # -- subscription -------------------------------------------------------

    def wants(self, name: str) -> bool:
        """True when ``name``'s group is subscribed."""
        if self._all:
            return True
        return name.split(".", 1)[0] in self._group_set

    # -- probe hooks --------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if not self.wants(name):
            return
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def sample(self, name: str, time_s: float, value: float) -> None:
        if not self.wants(name):
            return
        buffer = self.series.get(name)
        if buffer is None:
            buffer = self.series[name] = SeriesBuffer(name, self.max_samples_per_series)
        buffer.add(time_s, value)

    def event(self, name: str, time_s: float, **data: Any) -> None:
        if not self.wants(name):
            return
        events = self.events
        events.append((time_s, name, data))
        # Amortised oldest-first eviction: let the log grow to twice the
        # bound, then cut it back in one slice so steady-state appends stay
        # O(1) while memory stays O(max_events).
        if len(events) > 2 * self.max_events:
            excess = len(events) - self.max_events
            del events[:excess]
            self.events_dropped += excess
            self.overflowed = True

    def observe_trace(self, time_s: float, name: str, **data: Any) -> None:
        """Fold one network or fault event into the telemetry registries.

        Every observed trace name is counted under ``trace.<name>``; the
        curated :data:`TRACE_EVENT_KEEP` names (faults, mobility) are
        additionally kept as full events under ``faults.`` so a drop flood
        cannot evict them.
        """
        self.count(f"trace.{name}")
        if name in TRACE_EVENT_KEEP:
            self.event(f"faults.{name}", time_s, **data)


# ---------------------------------------------------------------------------
# Rendering (JSONL through the repository JSON policy)
# ---------------------------------------------------------------------------


def _jsonable_value(value: Any) -> Any:
    """Coerce one probe payload value to a JSON-safe, deterministic form.

    Primitives pass through; containers recurse; anything else is reduced
    to its type name (never ``repr``, which can embed memory addresses).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable_value(item) for key, item in value.items()}
    return f"<{type(value).__name__}>"


def telemetry_records(
    recorder: TelemetryRecorder,
    label: str = "run",
    diagnostics: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """The recorder's content as an ordered list of JSONL-ready records.

    Record order is fixed — header, counters (sorted by name), series
    (sorted by name), events (recorded order), then the optional
    ``diagnostics`` record — so equal recorder states always render to
    equal bytes.  ``diagnostics`` is the one wall-clock-bearing record; it
    is always last so byte-compare surfaces can drop it with a single
    line filter.
    """
    records: List[Dict[str, Any]] = [
        {
            "kind": "header",
            "schema": TELEMETRY_SCHEMA,
            "label": label,
            "groups": list(recorder.groups),
            "events_dropped": recorder.events_dropped,
            "overflowed": recorder.overflowed,
        }
    ]
    for name in sorted(recorder.counters):
        records.append({"kind": "counter", "name": name, "value": recorder.counters[name]})
    for name in sorted(recorder.series):
        buffer = recorder.series[name]
        records.append(
            {
                "kind": "series",
                "name": name,
                "stride": buffer.stride,
                "offered": buffer.offered,
                "samples": [[time_s, value] for time_s, value in buffer.samples],
            }
        )
    for time_s, name, data in recorder.events:
        records.append(
            {
                "kind": "event",
                "name": name,
                "time_s": time_s,
                "data": {str(key): _jsonable_value(item) for key, item in data.items()},
            }
        )
    if diagnostics is not None:
        records.append({"kind": "diagnostics", "diagnostics": diagnostics})
    return records


def telemetry_jsonl(records: Iterable[Dict[str, Any]]) -> str:
    """Render telemetry records as JSONL via the deterministic dumper.

    One compact line per record; every line goes through
    :func:`repro.metrics.export.dumps_deterministic` (sorted keys,
    ``allow_nan=False``), so equal records are equal bytes.
    """
    return "".join(dumps_deterministic(record, indent=None) for record in records)


def make_recorder(
    groups: Optional[Sequence[str]],
    max_samples_per_series: int = 512,
    max_events: int = 4096,
) -> Optional[TelemetryRecorder]:
    """A recorder for the validated ``groups``, or None when probes are off."""
    if not groups:
        return None
    return TelemetryRecorder(
        groups=groups,
        max_samples_per_series=max_samples_per_series,
        max_events=max_events,
    )


__all__ = [
    "ALL_GROUPS",
    "NULL_PROBES",
    "PROBE_GROUPS",
    "TELEMETRY_SCHEMA",
    "TRACE_EVENT_KEEP",
    "SeriesBuffer",
    "TelemetryProbes",
    "TelemetryRecorder",
    "make_recorder",
    "probe_groups_argument",
    "telemetry_jsonl",
    "telemetry_records",
]
