"""Sans-io UDP: datagram encode/decode and a port table.

UDP is the protocol the earlier user-level implementations (Topaz on the
Firefly, CMU's Mach work) handled; the paper argues the interesting case
is TCP.  We provide UDP both for completeness and for the examples that
show multiple protocol libraries coexisting in one application.
"""

from __future__ import annotations

from ..counters import Counters
from dataclasses import dataclass
from typing import Callable, Optional

from ..net.buf import STATS, prepend, slice_view
from ..net.checksum import transport_sum
from ..net.headers import PROTO_UDP, HeaderError, UdpHeader


class UdpError(ValueError):
    """Invalid UDP operation."""


@dataclass(frozen=True)
class UdpDatagram:
    """A received datagram."""

    src_ip: int
    src_port: int
    dst_port: int
    payload: bytes


def encode_datagram(
    sport: int, dport: int, payload, src_ip: int, dst_ip: int
):
    """Serialize one UDP datagram with a real checksum.

    The header is prepended onto the unsliced payload: the result is
    a fragment chain, fused when it reaches a wire."""
    length = UdpHeader.LENGTH + len(payload)
    total = transport_sum(src_ip, dst_ip, PROTO_UDP, length, payload) + sport + dport + length
    # RFC 768: a computed zero is sent as 0xFFFF, zero meaning "no checksum".
    checksum = 0xFFFF - (total % 0xFFFF or 0xFFFF) or 0xFFFF
    return prepend(UdpHeader(sport, dport, length, checksum).pack(), payload)


def decode_datagram(
    data, src_ip: int, dst_ip: int, verify: bool = True
) -> UdpDatagram:
    """Parse one UDP datagram, verifying length and checksum.

    The returned payload is a zero-copy view into ``data``."""
    header = UdpHeader.unpack(data)
    if header.length > len(data):
        raise HeaderError(f"UDP length {header.length} exceeds data")
    if verify and header.checksum != 0:
        datagram = slice_view(data, 0, header.length)
        if transport_sum(src_ip, dst_ip, PROTO_UDP, header.length, datagram) % 0xFFFF:
            raise HeaderError("UDP checksum mismatch")
    return UdpDatagram(
        src_ip=src_ip,
        src_port=header.sport,
        dst_port=header.dport,
        payload=slice_view(data, UdpHeader.LENGTH, header.length),
    )


class UdpPortTable:
    """Port binding and demultiplexing for one host's kernel UDP.  Every
    binder names its port: the one ephemeral-port allocator is
    :class:`~repro.registry.core.RegistryCore`."""

    def __init__(self) -> None:
        self._bound: dict[int, Callable[[UdpDatagram], None]] = {}
        self.stats = Counters()

    def bind(self, port: int, handler: Callable[[UdpDatagram], None]) -> None:
        """Bind ``handler`` to ``port``."""
        if not 0 < port < 0x10000:
            raise UdpError(f"bad port {port}")
        if port in self._bound:
            raise UdpError(f"port {port} already bound")
        self._bound[port] = handler

    def deliver(self, data: bytes, src_ip: int, dst_ip: int) -> bool:
        """Decode and dispatch; returns True if a handler consumed it."""
        try:
            datagram = decode_datagram(data, src_ip, dst_ip)
        except HeaderError:
            self.stats["bad_datagram"] += 1
            return False
        # Application boundary: the kernel-path software demux hands
        # handlers owned bytes, not a view into the rx frame — this
        # copy is the one the legacy kernel UDP path genuinely pays.
        payload = bytes(datagram.payload)
        STATS.copied_bytes += len(payload)
        STATS.copy_ops += 1
        datagram = UdpDatagram(
            datagram.src_ip, datagram.src_port, datagram.dst_port, payload
        )
        handler = self._bound.get(datagram.dst_port)
        if handler is None:
            self.stats["no_port"] += 1
            return False
        self.stats["delivered"] += 1
        handler(datagram)
        return True
