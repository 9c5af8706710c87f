"""Engine profiler: where do the events (and the wall-clock) go?

:class:`EngineProfiler` plugs into ``Simulator.profiler`` and counts
dispatched events per handler category (the callback's qualified name, so
``TcpSender._on_rto`` and ``Link._deliver`` show up as themselves).  The
note path is two dict operations; when no profiler is attached the run loop
pays a single local ``None`` check per event.

:func:`profile_diagnostics` assembles the profiler's counts together with
the engine's heap-hygiene counters (compactions, timer re-files, dead
entries, size), the packet pool's allocation stats and the run's measured
wall-clock into one ``diagnostics`` dict.  This dict is the repository's
**one sanctioned wall-clock-bearing surface**: it is attached to the
in-memory result only, never serialised by ``store/serialize.py``, never
hashed into a ``run_key``, and always rendered as the *last* telemetry
JSONL record so byte-compare surfaces can drop it with a one-line filter.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.net.packet import PacketPool
from repro.sim.engine import Simulator


class EngineProfiler:
    """Counts dispatched events per handler category."""

    __slots__ = ("handler_counts",)

    def __init__(self) -> None:
        self.handler_counts: Dict[str, int] = {}

    def note(self, callback: Any) -> None:
        """Attribute one dispatched event to ``callback``'s category.

        Categories are qualified names (deterministic, unlike ``repr``,
        which can embed memory addresses); callables without one — e.g.
        ``functools.partial`` — fall back to their type name.
        """
        key = getattr(callback, "__qualname__", None)
        if key is None:
            key = type(callback).__name__
        counts = self.handler_counts
        counts[key] = counts.get(key, 0) + 1

    @property
    def total(self) -> int:
        """Total events attributed so far."""
        return sum(self.handler_counts.values())


def pool_counters(pool: PacketPool) -> Dict[str, int]:
    """A point-in-time snapshot of a pool's cumulative counters."""
    return {
        "allocated": pool.allocated,
        "reused": pool.reused,
        "released": pool.released,
    }


def profile_diagnostics(
    profiler: EngineProfiler,
    simulator: Simulator,
    wallclock_s: float,
    pool: Optional[PacketPool] = None,
    pool_baseline: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """The full ``diagnostics`` payload for one profiled run.

    ``pool_baseline`` (a :func:`pool_counters` snapshot taken before the
    run) turns the process-wide pool's cumulative counters into this run's
    deltas; ``outstanding``/``highwater`` are absolute because
    ``set_pool_profile(True)`` resets them at attach time.  ``wallclock_s``
    is the runner's existing measured elapsed time — no new clock reads
    happen here.
    """
    events = simulator.events_processed
    payload: Dict[str, Any] = {
        "events_processed": events,
        "wallclock_s": wallclock_s,
        "us_per_event": (wallclock_s / events * 1e6) if events else 0.0,
        "handlers": {name: profiler.handler_counts[name]
                     for name in sorted(profiler.handler_counts)},
        "engine": {
            "heap_compactions": simulator.heap_compactions,
            "heap_refiles": simulator.heap_refiles,
            "heap_dead_entries": simulator.heap_dead_entries,
            "heap_size": simulator.heap_size,
        },
    }
    if pool is not None:
        counters = pool_counters(pool)
        if pool_baseline is not None:
            counters = {
                name: counters[name] - pool_baseline.get(name, 0) for name in counters
            }
        counters["outstanding"] = pool.outstanding
        counters["highwater"] = pool.highwater
        payload["packet_pool"] = counters
    return payload


__all__ = ["EngineProfiler", "pool_counters", "profile_diagnostics"]
