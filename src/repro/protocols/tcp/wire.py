"""TCP segments and their wire encoding — the one TCP codec.

:class:`Segment` is the in-machine representation (header fields +
payload bytes) and the only TCP header record there is.
:func:`encode_segment` / :func:`decode_segment` pack it into and parse
it out of real RFC 793 bytes (with the MSS option on a SYN), computing
and verifying the genuine pseudo-header checksum — corrupted segments
fail to decode and the plumbing drops them, exactly as a real input
path would.

Encoding is zero-copy and packs once: :func:`encode_header` packs the
header with a closed-form checksum, reading the payload once where it
lies.  A sender hands it to ``IpStack.send(head=)``, which puts the
IPv4 and TCP headers in front of the payload as one image;
:func:`encode_segment` is that TCP slice alone.  Nothing is cached.
"""

from __future__ import annotations

import struct

from typing import NamedTuple, Optional

from ...net.buf import PacketBuffer, prepend, slice_view
from ...net.checksum import transport_sum
from ...net.headers import (
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    HeaderError,
    record,
)

TCPOPT_END = 0
TCPOPT_NOP = 1
TCPOPT_MSS = 2

#: sport, dport, seq, ack, data offset, flags, window, checksum, urgent.
_HEADER = struct.Struct("!HHIIBBHHH")
#: The same with the one option a SYN carries: kind, length, MSS.
_SYN_HEADER = struct.Struct("!HHIIBBHHHBBH")
HEADER_LENGTH = _HEADER.size


class ChecksumError(ValueError):
    """A TCP segment failed its checksum."""


@record
class Segment(NamedTuple):
    """One TCP segment as the protocol machine sees it."""

    sport: int
    dport: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""
    mss: Optional[int] = None

    def __repr__(self) -> str:
        names = []
        for bit, name in (
            (TCP_SYN, "SYN"),
            (TCP_ACK, "ACK"),
            (TCP_FIN, "FIN"),
            (TCP_RST, "RST"),
            (TCP_PSH, "PSH"),
        ):
            if self.flags & bit:
                names.append(name)
        return (
            f"<Segment {self.sport}->{self.dport} "
            f"{'|'.join(names) or 'none'} seq={self.seq} ack={self.ack} "
            f"win={self.window} len={len(self.payload)}>"
        )

    @property
    def syn(self) -> bool:
        return bool(self.flags & TCP_SYN)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & TCP_ACK)

    @property
    def fin(self) -> bool:
        return bool(self.flags & TCP_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & TCP_RST)

    @property
    def seg_len(self) -> int:
        """Sequence space the segment occupies (SYN and FIN count 1)."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)


def reset_for(segment: Segment, sport: int, dport: int) -> Optional[Segment]:
    """The reset RFC 793 p.36 prescribes for a segment no connection
    claims, sent ``sport`` → ``dport``: none for a reset; sequenced at
    the segment's ACK if it bears one; otherwise sequence zero,
    acknowledging everything the segment occupies."""
    if segment.rst:
        return None
    if segment.has_ack:
        return Segment.build((sport, dport, segment.ack, 0, TCP_RST, 0, b"", None))
    ack = (segment.seq + segment.seg_len) & 0xFFFFFFFF
    return Segment.build((sport, dport, 0, ack, TCP_RST | TCP_ACK, 0, b"", None))


def encode_header(segment: Segment, src_ip: int, dst_ip: int) -> tuple[bytes, int]:
    """The one TCP header packer: the segment's header, packed once with
    its checksum in place — a closed-form word sum (net/checksum.py) of
    the fields, the pseudo-header and the payload — and its TCP length.

    ``struct`` refuses a field wider than its slot; that refusal is the
    alarm for a sequence number nobody masked, raised as
    :class:`HeaderError` rather than written as a silently wrong byte.
    """
    mss, payload = segment.mss, segment.payload
    if mss is None:
        packer, options = _HEADER, ()
    elif 0 < mss <= 0xFFFF:
        packer, options = _SYN_HEADER, (TCPOPT_MSS, 4, mss)
    else:
        raise HeaderError(f"bad TCP MSS {mss}")
    size = packer.size  # Octets; the data-offset octet, (size / 4) << 4, is size << 2.
    length = size + len(payload)
    total = transport_sum(src_ip, dst_ip, PROTO_TCP, length, payload) + segment.sport
    total += segment.dport + segment.seq + segment.ack + (size << 10 | segment.flags)
    total += segment.window + ((TCPOPT_MSS << 8 | 4) + mss if options else 0)
    try:
        return packer.pack(
            segment.sport, segment.dport, segment.seq, segment.ack, size << 2, segment.flags,
            segment.window, 0xFFFF - (total % 0xFFFF or 0xFFFF), 0, *options,
        ), length
    except struct.error as exc:
        raise HeaderError(f"TCP header field out of range: {exc}") from None


def encode_segment(segment: Segment, src_ip: int, dst_ip: int):
    """Serialize with a correct pseudo-header checksum.

    Returns the header prepended onto the *unsliced* payload as a
    fragment chain: the TCP slice of the one image a sender builds.
    """
    return prepend(encode_header(segment, src_ip, dst_ip)[0], segment.payload)


def decode_segment(data, src_ip: int, dst_ip: int, verify: bool = True) -> Segment:
    """Parse bytes into a :class:`Segment`, verifying the checksum.

    ``data`` may be any bytes-like object; the returned payload is a
    zero-copy view into it.  Raises :class:`ChecksumError` on checksum
    failure and :class:`~repro.net.headers.HeaderError` on malformed
    headers.
    """
    if type(data) is PacketBuffer:
        data = data.tobytes()
    length = len(data)
    if verify and transport_sum(src_ip, dst_ip, PROTO_TCP, length, data) % 0xFFFF:
        raise ChecksumError("TCP checksum mismatch")
    if length < HEADER_LENGTH:
        raise HeaderError(f"short TCP header ({length} bytes)")
    sport, dport, seq, ack, offset, flags, window, _, _ = _HEADER.unpack_from(data)
    header_length = (offset >> 4) * 4
    mss = None
    if header_length != HEADER_LENGTH:
        if header_length < HEADER_LENGTH or header_length > length:
            raise HeaderError(f"bad TCP data offset {header_length}")
        mss = _parse_mss(data[HEADER_LENGTH:header_length])
    return Segment.build(
        (sport, dport, seq, ack, flags, window, slice_view(data, header_length), mss)
    )


def _parse_mss(options) -> Optional[int]:
    """The MSS option's value among ``options``, or None without one."""
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == TCPOPT_END:
            break
        if kind == TCPOPT_NOP:
            i += 1
            continue
        if i + 1 >= len(options):
            raise HeaderError("truncated TCP option")
        length = options[i + 1]
        if length < 2 or i + length > len(options):
            raise HeaderError("bad TCP option length")
        if kind == TCPOPT_MSS:
            if length != 4:
                raise HeaderError("bad MSS option length")
            return int.from_bytes(options[i + 2 : i + 4], "big")
        i += length
    return None


class TcpSegmentEncoder:
    """:func:`encode_segment` with one connection's address pair bound.

    It caches nothing: every header is packed by :func:`encode_header`.
    Nothing under ``src/`` constructs one; it stays only because the
    ledger's ``sansio.py`` and ``probes.py`` import it.
    """

    def __init__(self, sport: int, dport: int, src_ip: int, dst_ip: int) -> None:
        self.sport = sport
        self.dport = dport
        self.src_ip = src_ip
        self.dst_ip = dst_ip

    def encode(self, segment: Segment):
        """Exactly ``encode_segment(segment, src_ip, dst_ip)``."""
        return encode_segment(segment, self.src_ip, self.dst_ip)
