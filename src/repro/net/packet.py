"""Packet model and the packet free-list pool.

A :class:`Packet` is a mutable record that travels through the simulated
network.  It carries both the fields a real TCP/IP header would carry
(addresses, ports, sequence/acknowledgement numbers, flags) and
the MPTCP data-sequence-signal fields (``dsn`` / ``dack`` / ``subflow_id``)
that MPTCP and MMPTCP need.

Packets are deliberately simple Python objects with ``__slots__`` — millions
of them are created per experiment, so attribute access speed and memory
footprint matter.  Two further data-plane optimisations live here:

* **Derived fields are precomputed.**  ``size`` is a plain slot (header +
  payload, set at construction), and ``flow_bytes`` holds the
  packed little-endian serialisation of the ECMP 5-tuple so that per-hop
  hashing walks a cached ``bytes`` object instead of re-deriving 40 bytes
  from five attributes at every switch.  ``flow_hash`` caches the unsalted
  FNV-1a digest of ``flow_bytes`` (filled lazily by
  :func:`repro.net.ecmp.ecmp_hash`).  **Invariant:** the 5-tuple fields
  (``src`` / ``dst`` / ``src_port`` / ``dst_port`` / ``protocol``) must not
  be mutated after construction — build (or acquire) a new packet instead,
  exactly as real hardware would emit a new frame.  Likewise
  ``payload_size`` must not change, so that ``size`` stays in sync.

* **Packets are pooled.**  Transports acquire packets from a
  :class:`PacketPool` free list instead of allocating, and the network
  releases every packet it consumes (endpoint delivery, queue drops,
  fault drops, unroutable packets) back to the pool.  Ownership is strictly
  linear: once a packet has been handed to ``Host.send`` /
  ``Interface.send`` the sender must never touch it again — the pool may
  recycle it for an unrelated flow at any moment.  ``PacketPool(debug=True)``
  poisons every released packet so that use-after-release shows up as
  loudly corrupted traffic instead of silent aliasing.
"""

from __future__ import annotations

from struct import Struct
from typing import List, Optional

# TCP flag bit-mask values.
FLAG_SYN = 0x01
FLAG_ACK = 0x02
FLAG_FIN = 0x04
FLAG_DATA = 0x08

#: Combined size of the simulated IP + TCP headers in bytes.  MPTCP options
#: (DSS) would add ~20 bytes; we fold that into a single constant because the
#: evaluation is insensitive to a few header bytes.
DEFAULT_HEADER_BYTES = 54

#: Protocol numbers used in the ECMP hash.
PROTO_TCP = 6

_U64 = 0xFFFFFFFFFFFFFFFF

#: The ECMP 5-tuple packed as five little-endian u64 words — byte-for-byte
#: the sequence the seed FNV-1a implementation consumed (each value masked to
#: 64 bits, least-significant byte first), so hashes over ``flow_bytes`` are
#: exactly equal to hashes over the original tuple.
_pack_flow = Struct("<5Q").pack

#: Sentinel written into released packets when pool poisoning is on.  Any
#: component that reads a released packet sees nonsense addresses/sizes and
#: derails visibly (golden traces diverge, routing fails) instead of
#: silently aliasing live traffic.
POISON = -0x8BADF00D


class Packet:
    """A single simulated packet.

    Attributes:
        flow_id: identifier of the application flow this packet belongs to.
        src / dst: integer node addresses.
        src_port / dst_port: transport ports; MMPTCP's packet-scatter phase
            randomises ``src_port`` per packet to diversify the ECMP hash.
        protocol: IP protocol number (always TCP here, kept for hashing).
        seq: subflow-level sequence number (byte offset of the first payload
            byte carried by this packet).
        ack: cumulative subflow-level acknowledgement number.
        flags: bitwise OR of ``FLAG_*`` constants.
        payload_size: application bytes carried.
        size: bytes on the wire, the ``header_size`` the packet was built
            with plus ``payload_size``.
        subflow_id: index of the MPTCP subflow (0 for single-path TCP and for
            the MMPTCP packet-scatter flow).
        dsn: connection-level data sequence number (byte offset).
        dack: connection-level cumulative data acknowledgement.
        flow_bytes: packed 5-tuple fed to the per-hop ECMP hash (``None``
            until the first hashed hop; see :meth:`flow_key`).
        flow_hash: cached unsalted FNV-1a digest of ``flow_bytes`` (``None``
            until first needed).
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "src_port",
        "dst_port",
        "protocol",
        "seq",
        "ack",
        "flags",
        "payload_size",
        "size",
        "subflow_id",
        "dsn",
        "dack",
        "flow_bytes",
        "flow_hash",
        "_in_pool",
    )

    def __init__(
        self,
        *,
        flow_id: int,
        src: int,
        dst: int,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        payload_size: int = 0,
        header_size: int = DEFAULT_HEADER_BYTES,
        subflow_id: int = 0,
        dsn: int = 0,
        dack: int = 0,
        protocol: int = PROTO_TCP,
    ) -> None:
        """(Re)initialise every field.

        The packet pool calls ``__init__`` again on recycled instances, so
        this method *must* assign every slot, which is what makes recycled
        packets indistinguishable from freshly constructed ones (pooling can
        never leak state between logical packets).
        """
        self._in_pool = False
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.protocol = protocol
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_size = payload_size
        self.size = header_size + payload_size
        self.subflow_id = subflow_id
        self.dsn = dsn
        self.dack = dack
        # Lazily packed on the first hashed hop: packets that never cross a
        # multi-candidate ECMP group (pure downlink paths, early drops) skip
        # the packing cost entirely.
        self.flow_bytes = None
        self.flow_hash = None

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------

    def flow_key(self) -> bytes:
        """The packed 5-tuple fed to the ECMP hash (packed once, then cached).

        Hot paths (``ecmp_hash``, ``Switch.flow_hash_for``) inline this
        lazy-fill rather than calling it; keep the logic in sync.
        """
        key = self.flow_bytes
        if key is None:
            key = self.flow_bytes = _pack_flow(
                self.src & _U64,
                self.dst & _U64,
                self.src_port & _U64,
                self.dst_port & _U64,
                self.protocol & _U64,
            )
        return key

    @property
    def is_syn(self) -> bool:
        """True if the SYN flag is set."""
        return bool(self.flags & FLAG_SYN)

    @property
    def is_ack(self) -> bool:
        """True if the ACK flag is set."""
        return bool(self.flags & FLAG_ACK)

    @property
    def is_fin(self) -> bool:
        """True if the FIN flag is set."""
        return bool(self.flags & FLAG_FIN)

    @property
    def carries_data(self) -> bool:
        """True if the packet carries application payload."""
        return self.payload_size > 0

    # ------------------------------------------------------------------
    # Pool support
    # ------------------------------------------------------------------

    def _poison(self) -> None:
        """Overwrite every field with garbage (pool debug mode).

        A released packet that is still referenced anywhere now carries an
        unroutable destination, a negative size and a corrupt flow hash, so
        any use-after-release derails the simulation instead of silently
        reading stale (or worse, recycled) state.
        """
        self.flow_id = POISON
        self.src = POISON
        self.dst = POISON
        self.src_port = POISON
        self.dst_port = POISON
        self.protocol = POISON
        self.seq = POISON
        self.ack = POISON
        self.flags = 0
        self.payload_size = POISON
        self.size = POISON
        self.subflow_id = POISON
        self.dsn = POISON
        self.dack = POISON
        self.flow_bytes = b"\xde\xad" * 20
        self.flow_hash = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag_names = []
        if self.is_syn:
            flag_names.append("SYN")
        if self.is_ack:
            flag_names.append("ACK")
        if self.is_fin:
            flag_names.append("FIN")
        if self.carries_data:
            flag_names.append(f"DATA[{self.payload_size}]")
        return (
            f"Packet(id={id(self)}, flow={self.flow_id}, "
            f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port}, "
            f"seq={self.seq}, ack={self.ack}, dsn={self.dsn}, "
            f"sf={self.subflow_id}, {'|'.join(flag_names) or 'none'})"
        )


class PacketPool:
    """A LIFO free list of :class:`Packet` objects.

    ``acquire`` pops a recycled packet (or allocates when the list is empty)
    and re-initialises every field; ``release`` returns a consumed packet.
    Double releases always raise.  With ``debug=True`` every released packet
    is additionally poisoned (see :meth:`Packet._poison`) and re-checked on
    acquisition, turning use-after-release and release-while-live bugs into
    immediate, loud failures — golden-trace runs with poisoning on prove the
    acquire/release discipline is airtight.

    Pooling is a pure allocation optimisation: acquisition re-runs
    ``Packet.__init__`` on the recycled instance, which rewrites every slot,
    so simulations are byte-identical with or without reuse, for any
    free-list size.
    """

    def __init__(self, max_free: int = 4096, debug: bool = False) -> None:
        if max_free < 0:
            raise ValueError("max_free cannot be negative")
        self._free: List[Packet] = []
        self.max_free = max_free
        self.debug = debug
        self.allocated = 0
        self.reused = 0
        self.released = 0
        # Profiling (off by default: one falsy attribute check per
        # acquire/release).  ``outstanding``/``highwater`` track live packets
        # only while ``profile`` is on — diagnostics, never simulation state.
        self.profile = False
        self.outstanding = 0
        self.highwater = 0

    # ------------------------------------------------------------------

    def acquire(self, **fields) -> Packet:
        """Return a packet initialised with ``fields`` (recycled when possible)."""
        free = self._free
        if free:
            packet = free.pop()
            if self.debug and (
                packet.src != POISON
                or packet.dst != POISON
                or packet.src_port != POISON
                or packet.dst_port != POISON
                or packet.seq != POISON
                or packet.ack != POISON
                or packet.size != POISON
                or packet.payload_size != POISON
                or packet.dsn != POISON
            ):
                raise RuntimeError(
                    "packet pool corruption: a free-list packet was mutated "
                    "while released (use-after-release)"
                )
            # Re-running __init__ rewrites every slot (and clears _in_pool).
            packet.__init__(**fields)
            self.reused += 1
            if self.profile:
                outstanding = self.outstanding + 1
                self.outstanding = outstanding
                if outstanding > self.highwater:
                    self.highwater = outstanding
            return packet
        self.allocated += 1
        if self.profile:
            outstanding = self.outstanding + 1
            self.outstanding = outstanding
            if outstanding > self.highwater:
                self.highwater = outstanding
        return Packet(**fields)

    def release(self, packet: Packet) -> None:
        """Return ``packet`` to the free list.  The caller forfeits ownership."""
        if packet._in_pool:
            raise RuntimeError(f"double release of packet {id(packet)}")
        packet._in_pool = True
        self.released += 1
        if self.profile:
            self.outstanding -= 1
        if self.debug:
            packet._poison()
        if len(self._free) < self.max_free:
            self._free.append(packet)

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every parked packet (mainly for test isolation)."""
        self._free.clear()


#: The process-wide default pool used by the transports and the network
#: layer.  Parallel sweep workers each get their own copy (module state is
#: per-process), and pooling never affects simulation results, so sharing a
#: pool across experiments in one process is safe.
_default_pool = PacketPool()


def default_pool() -> PacketPool:
    """The process-wide :class:`PacketPool`."""
    return _default_pool


#: Acquire a packet from the default pool (transport-side entry point) /
#: release a consumed packet to it (network-side entry point).  Exported as
#: bound methods: one call layer fewer on the two hottest allocation paths.
acquire_packet = _default_pool.acquire
release_packet = _default_pool.release


def set_pool_debug(enabled: bool) -> bool:
    """Toggle poisoning on the default pool; returns the previous setting.

    The free list is emptied whenever the setting changes: entries released
    before enabling are not poisoned (and would trip the acquisition check),
    and poisoned entries from a debug session must not outlive it.
    """
    previous = _default_pool.debug
    if previous != enabled:
        _default_pool.debug = enabled
        _default_pool.clear()
    return previous


def set_pool_profile(enabled: bool) -> bool:
    """Toggle outstanding/highwater tracking on the default pool.

    Returns the previous setting.  Enabling resets the watermarks so a
    profiled run reports its own peak, not a predecessor's; pooling itself
    is unaffected (the free list is preserved) and simulation results never
    depend on the setting.
    """
    previous = _default_pool.profile
    _default_pool.profile = enabled
    if enabled and not previous:
        _default_pool.outstanding = 0
        _default_pool.highwater = 0
    return previous


def make_ack(
    original: Packet,
    *,
    ack: int,
    dack: int = 0,
    src_port: Optional[int] = None,
    dst_port: Optional[int] = None,
) -> Packet:
    """Build an acknowledgement packet for ``original`` (pool-acquired).

    The ACK is addressed back to the original sender; by default it swaps the
    port pair so that it follows a stable reverse path under ECMP.  Callers
    can override ``dst_port`` when the data packet used a randomised source
    port (MMPTCP packet scatter) but acknowledgements must reach the sender's
    canonical port.
    """
    return _default_pool.acquire(
        flow_id=original.flow_id,
        src=original.dst,
        dst=original.src,
        src_port=src_port if src_port is not None else original.dst_port,
        dst_port=dst_port if dst_port is not None else original.src_port,
        ack=ack,
        dack=dack,
        flags=FLAG_ACK,
        payload_size=0,
        subflow_id=original.subflow_id,
    )
