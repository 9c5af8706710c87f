"""Transport protocols: TCP NewReno and MPTCP (plus shared machinery)."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "base": ("TcpConfig",),
    "mptcp": ("MptcpConnection", "MptcpReceiver"),
})
