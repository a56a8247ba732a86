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
from ..net.checksum import checksum_parts, pseudo_header
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
    header = UdpHeader(sport=sport, dport=dport, length=length, checksum=0)
    head = bytearray(header.pack())
    pseudo = pseudo_header(src_ip, dst_ip, PROTO_UDP, length)
    checksum = checksum_parts(pseudo, head, payload)
    if checksum == 0:
        checksum = 0xFFFF  # RFC 768: zero means "no checksum".
    head[6:8] = checksum.to_bytes(2, "big")
    return prepend(bytes(head), payload)


def decode_datagram(
    data, src_ip: int, dst_ip: int, verify: bool = True
) -> UdpDatagram:
    """Parse one UDP datagram, verifying length and checksum.

    The returned payload is a zero-copy view into ``data``."""
    header = UdpHeader.unpack(data)
    if header.length > len(data):
        raise HeaderError(f"UDP length {header.length} exceeds data")
    if verify and header.checksum != 0:
        pseudo = pseudo_header(src_ip, dst_ip, PROTO_UDP, header.length)
        if checksum_parts(pseudo, slice_view(data, 0, header.length)) != 0:
            raise HeaderError("UDP checksum mismatch")
    return UdpDatagram(
        src_ip=src_ip,
        src_port=header.sport,
        dst_port=header.dport,
        payload=slice_view(data, UdpHeader.LENGTH, header.length),
    )


class UdpPortTable:
    """Port allocation and demultiplexing for one host's UDP."""

    EPHEMERAL_START = 1024

    def __init__(self) -> None:
        self._bound: dict[int, Callable[[UdpDatagram], None]] = {}
        self._next_ephemeral = self.EPHEMERAL_START
        self.stats = Counters()

    def bind(self, port: int, handler: Callable[[UdpDatagram], None]) -> int:
        """Bind ``handler`` to ``port`` (0 picks an ephemeral port)."""
        if port == 0:
            port = self.allocate_ephemeral()
        if port in self._bound:
            raise UdpError(f"port {port} already bound")
        self._bound[port] = handler
        return port

    def unbind(self, port: int) -> None:
        self._bound.pop(port, None)

    def allocate_ephemeral(self) -> int:
        for _ in range(0x10000 - self.EPHEMERAL_START):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 0x10000:
                self._next_ephemeral = self.EPHEMERAL_START
            if port not in self._bound:
                return port
        raise UdpError("no ephemeral ports left")

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
