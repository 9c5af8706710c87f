"""Workload generation: flow specs, traffic matrices, arrival processes."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "flowspec": ("PROTOCOL_MMPTCP", "PROTOCOL_MPTCP", "PROTOCOL_TCP"),
    "workloads": ("build_incast_workload",),
})
