"""Discrete-event simulation core: engine, units, randomness and tracing."""

from repro.sim.engine import Event, SimulationError, Simulator, Timer
from repro.sim.randomness import RandomStreams, derive_seed
from repro.sim.tracing import (
    NULL_SINK,
    RecordingTraceSink,
    TraceEvent,
    TraceSink,
)

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Timer",
    "RandomStreams",
    "derive_seed",
    "TraceSink",
    "TraceEvent",
    "RecordingTraceSink",
    "NULL_SINK",
]
