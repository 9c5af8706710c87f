"""Discrete-event simulation core: engine, units and randomness."""

from repro.sim.engine import Event, SimulationError, Simulator, Timer
from repro.sim.randomness import RandomStreams, derive_seed

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Timer",
    "RandomStreams",
    "derive_seed",
]
