"""Data-centre topologies."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "fattree": ("FatTreeParams", "FatTreeTopology"),
})
