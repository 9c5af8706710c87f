"""MMPTCP — the paper's contribution: packet scatter, phase switching, reordering."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "mmptcp": ("MmptcpConnection",),
    "phase_switching": ("CongestionEventSwitching", "DataVolumeSwitching", "HybridSwitching",
        "NeverSwitch"),
})
