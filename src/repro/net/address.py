"""Addressing schemes.

Nodes are addressed by plain integers (fast to hash and compare).  This
module packs a FatTree position into such an integer, mirroring the
``10.pod.switch.host`` convention of Al-Fares et al. (SIGCOMM 2008), which
the MMPTCP paper proposes to exploit for estimating the number of available
equal-cost paths between two hosts.
"""

from __future__ import annotations


def encode_fattree_address(pod: int, edge: int, host: int) -> int:
    """Pack a FatTree position into a single integer address."""
    if pod < 0 or edge < 0 or host < 0:
        raise ValueError("pod, edge and host indices must be non-negative")
    if edge >= 1 << 10 or host >= 1 << 10:
        raise ValueError("edge/host index too large for the packed encoding")
    return (pod << 20) | (edge << 10) | host

