"""Measurement records, aggregation and reporting."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "collector": ("ExperimentMetrics",),
    "reporting": ("render_table",),
})
