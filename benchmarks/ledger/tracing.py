"""The ledger's three instruments: phase spans, handler timing, self time.

All three measure ``repro`` from outside.  Spans wrap the ledger's own calls
into public functions; :class:`HandlerTimer` is an object with the
``note(callback)`` protocol that ``Simulator.profiler`` documents; self time
comes from ``cProfile`` statistics bucketed by source file.  Nothing here
touches a file under ``src/``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

# ---------------------------------------------------------------------------
# Phase spans
# ---------------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans: name, start, end and the span that caused each one.

    Spans nest by call structure (the enclosing ``with`` block is the
    parent); they are kept in memory and only rendered when the run ends.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._open: List[int] = []
        self.spans: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": self._clock(),
            "end": None,
            "args": args,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        )

    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        """The spans as a Chrome trace-event document (complete ``X`` events)."""
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": process_name}}
        ]
        origin = self.spans[0]["start"] if self.spans else 0.0
        for span in self.spans:
            if span["end"] is None:
                continue
            events.append(
                {
                    "ph": "X",
                    "name": span["name"],
                    "pid": 1,
                    "tid": 1,
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "args": {"id": span["id"], "parent": span["parent"], **span["args"]},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Module -> layer / bucket mapping
# ---------------------------------------------------------------------------

#: Modules that get a bucket of their own inside a split package.
_MODULE_BUCKETS = {
    ("sim", "engine"): "sim.engine",
    ("sim", "timerwheel"): "sim.timerwheel",
    ("sim", "fluid"): "sim.fluid",
    ("net", "link"): "net.link",
    ("net", "queues"): "net.queues",
    ("net", "switch"): "net.switch",
    ("net", "ecmp"): "net.switch",
    ("net", "routing"): "net.switch",
    ("net", "host"): "net.host",
    ("net", "packet"): "net.packet",
    ("transport", "tcp"): "transport.tcp",
    ("transport", "mptcp"): "transport.mptcp",
}

#: Packages whose unlisted modules land in ``<package>.other``; every other
#: package is one bucket.
_SPLIT_PACKAGES = frozenset({"sim", "net", "transport"})

#: Everything that is not ``repro`` source: stdlib, builtins, the ledger.
OTHER_BUCKET = "other"


def _bucket(package: str, module: str) -> str:
    listed = _MODULE_BUCKETS.get((package, module))
    if listed is not None:
        return listed
    return f"{package}.other" if package in _SPLIT_PACKAGES else package


def bucket_of_file(filename: str) -> str:
    """The self-time bucket of a source file: ``src/repro/<package>/<module>.py``.

    ``repro/cli.py`` is the ``cli`` bucket; sub-packages (``transport/cc``,
    ``analysis/lint``) fold into their package.
    """
    _, anchor, inside = filename.replace("\\", "/").rpartition("src/repro/")
    if not anchor or not inside.endswith(".py"):
        return OTHER_BUCKET
    parts = inside[:-3].split("/")
    if len(parts) == 1:
        return parts[0] if parts[0] != "__init__" else OTHER_BUCKET
    return _bucket(parts[0], parts[1])


def layer_of_module(module: Optional[str]) -> str:
    """The layer a handler defined in ``module`` is charged to.

    ``transport`` and ``core`` are one layer (MMPTCP's endpoints inherit the
    MPTCP handlers, so the split would follow inheritance, not cost).
    """
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return OTHER_BUCKET
    return "transport" if parts[1] == "core" else parts[1]


# ---------------------------------------------------------------------------
# Handler timing
# ---------------------------------------------------------------------------


class HandlerTimer:
    """Charges host time to the root handler the engine is dispatching.

    ``Simulator.run`` calls ``profiler.note(callback)`` immediately before
    each dispatch.  The gap between two consecutive ``note`` calls is
    charged to the earlier handler, so a handler's time is inclusive of
    everything it calls synchronously and of the engine's pop that follows
    it.  :meth:`finish` closes the last gap once ``run`` returns.
    """

    __slots__ = ("_clock", "_current", "_since", "seconds", "events")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._current: Optional[str] = None
        self._since = 0.0
        #: defining module -> charged seconds / dispatched events
        self.seconds: Dict[str, float] = {}
        self.events: Dict[str, int] = {}

    def note(self, callback: Any) -> None:
        now = self._clock()
        current = self._current
        if current is not None:
            self.seconds[current] = self.seconds.get(current, 0.0) + (now - self._since)
        module = getattr(callback, "__module__", None) or type(callback).__module__
        self.events[module] = self.events.get(module, 0) + 1
        self._current = module
        # Read the clock again so the bookkeeping above is not charged.
        self._since = self._clock()

    def finish(self) -> None:
        """Charge the time since the last dispatch and stop attributing."""
        if self._current is not None:
            now = self._clock()
            self.seconds[self._current] = (
                self.seconds.get(self._current, 0.0) + (now - self._since)
            )
            self._current = None

    def by_layer(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (events dispatched, seconds charged)."""
        rolled: Dict[str, Tuple[int, float]] = {}
        for module in sorted(self.events):
            layer = layer_of_module(module)
            events, seconds = rolled.get(layer, (0, 0.0))
            rolled[layer] = (
                events + self.events[module],
                seconds + self.seconds.get(module, 0.0),
            )
        return rolled


# ---------------------------------------------------------------------------
# Self time from cProfile statistics
# ---------------------------------------------------------------------------

#: ``pstats``-shaped statistics: (file, line, function) -> (primitive calls,
#: calls, tottime, cumtime, callers).
ProfileStats = Mapping[Tuple[str, int, str], Tuple[int, int, float, float, Any]]


def profile_buckets(stats: ProfileStats) -> Dict[str, Dict[str, float]]:
    """bucket -> ``{"self_s": summed tottime, "calls": exact call count}``."""
    buckets: Dict[str, Dict[str, float]] = {}
    for (filename, _line, _name), (_cc, calls, tottime, _ct, _callers) in stats.items():
        entry = buckets.setdefault(bucket_of_file(filename), {"self_s": 0.0, "calls": 0})
        entry["self_s"] += tottime
        entry["calls"] += calls
    return buckets


def function_stat(stats: ProfileStats, file_suffix: str, name: str) -> Tuple[int, float, float]:
    """(calls, tottime, cumtime) of the function ``name`` in ``*file_suffix``."""
    calls, tottime, cumtime = 0, 0.0, 0.0
    for (filename, _line, function), (_cc, nc, tt, ct, _callers) in stats.items():
        if function == name and filename.replace("\\", "/").endswith(file_suffix):
            calls += nc
            tottime += tt
            cumtime += ct
    return calls, tottime, cumtime


def ranked_budget(buckets: Mapping[str, Mapping[str, float]], top: int = 5) -> List[Dict[str, Any]]:
    """The ``top`` ``repro`` buckets by self time, then the ``other`` bucket.

    ``share`` is of all profiled self time; ``other`` (stdlib called by the
    layers: json, hashlib, pickle, argparse) closes the list so the shares
    of what is not shown can be read off.
    """
    total = sum(entry["self_s"] for entry in buckets.values()) or 1.0
    ranked = sorted(
        (name for name in buckets if name != OTHER_BUCKET),
        key=lambda name: (-buckets[name]["self_s"], name),
    )[:top]
    if OTHER_BUCKET in buckets:
        ranked.append(OTHER_BUCKET)
    return [
        {
            "bucket": name,
            "self_s": buckets[name]["self_s"],
            "calls": int(buckets[name]["calls"]),
            "share": buckets[name]["self_s"] / total,
        }
        for name in ranked
    ]
