"""Discrete-event simulation core: engine, units and randomness."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "engine": ("Simulator",),
})
