"""TCP segments and their wire encoding — the one TCP codec.

:class:`Segment` is the in-machine representation (header fields +
payload bytes) and the only TCP header record there is.
:func:`encode_segment` / :func:`decode_segment` pack it into and parse
it out of real RFC 793 bytes (with the MSS option on a SYN), computing
and verifying the genuine pseudo-header checksum — corrupted segments
fail to decode and the plumbing drops them, exactly as a real input
path would.

Encoding is zero-copy: the 20-byte header is built once and *prepended*
onto the caller's payload as a fragment chain (no payload copy), with
the checksum computed over the unjoined parts.  Every header is packed
by ``_build_header``; no header image is cached between segments.
"""

from __future__ import annotations

import struct

from dataclasses import dataclass
from typing import Optional

from ...net.buf import PacketBuffer, prepend, slice_view
from ...net.checksum import checksum_parts, pseudo_header
from ...net.headers import (
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    HeaderError,
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


@dataclass(frozen=True)
class Segment:
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

    @property
    def wire_length(self) -> int:
        """Bytes of TCP header + payload on the wire."""
        header = HEADER_LENGTH + (4 if self.mss is not None else 0)
        return header + len(self.payload)


def reset_for(segment: Segment, sport: int, dport: int) -> Optional[Segment]:
    """The reset RFC 793 p.36 prescribes for a segment no connection
    claims, sent ``sport`` → ``dport``: none for a reset; sequenced at
    the segment's ACK if it bears one; otherwise sequence zero,
    acknowledging everything the segment occupies."""
    if segment.rst:
        return None
    if segment.has_ack:
        return Segment(
            sport=sport, dport=dport,
            seq=segment.ack, ack=0, flags=TCP_RST, window=0,
        )
    return Segment(
        sport=sport, dport=dport,
        seq=0, ack=(segment.seq + segment.seg_len) & 0xFFFFFFFF,
        flags=TCP_RST | TCP_ACK, window=0,
    )


def _build_header(segment: Segment, src_ip: int, dst_ip: int) -> bytes:
    """The segment's TCP header bytes with a correct checksum in place.

    ``struct`` refuses a field wider than its slot; that refusal is the
    alarm for a sequence number nobody masked, raised as
    :class:`HeaderError` rather than written as a silently wrong byte.
    """
    mss = segment.mss
    try:
        if mss is None:
            head = _HEADER.pack(
                segment.sport, segment.dport, segment.seq, segment.ack,
                5 << 4, segment.flags, segment.window, 0, 0,
            )
        else:
            if not 0 < mss <= 0xFFFF:
                raise HeaderError(f"bad TCP MSS {mss}")
            head = _SYN_HEADER.pack(
                segment.sport, segment.dport, segment.seq, segment.ack,
                6 << 4, segment.flags, segment.window, 0, 0,
                TCPOPT_MSS, 4, mss,
            )
    except struct.error as exc:
        raise HeaderError(f"TCP header field out of range: {exc}") from None
    pseudo = pseudo_header(
        src_ip, dst_ip, PROTO_TCP, len(head) + len(segment.payload)
    )
    checksum = checksum_parts(pseudo, head, segment.payload)
    return head[:16] + checksum.to_bytes(2, "big") + head[18:]


def encode_segment(segment: Segment, src_ip: int, dst_ip: int):
    """Serialize with a correct pseudo-header checksum.

    Returns the header prepended onto the *unsliced* payload as a
    fragment chain.
    """
    return prepend(_build_header(segment, src_ip, dst_ip), segment.payload)


def decode_segment(data, src_ip: int, dst_ip: int, verify: bool = True) -> Segment:
    """Parse bytes into a :class:`Segment`, verifying the checksum.

    ``data`` may be any bytes-like object; the returned payload is a
    zero-copy view into it.  Raises :class:`ChecksumError` on checksum
    failure and :class:`~repro.net.headers.HeaderError` on malformed
    headers.
    """
    if verify:
        pseudo = pseudo_header(src_ip, dst_ip, PROTO_TCP, len(data))
        if checksum_parts(pseudo, data) != 0:
            raise ChecksumError("TCP checksum mismatch")
    if type(data) is PacketBuffer:
        data = data.tobytes()
    if len(data) < HEADER_LENGTH:
        raise HeaderError(f"short TCP header ({len(data)} bytes)")
    sport, dport, seq, ack, offset, flags, window, _, _ = _HEADER.unpack_from(data)
    header_length = (offset >> 4) * 4
    mss = None
    if header_length != HEADER_LENGTH:
        if header_length < HEADER_LENGTH or header_length > len(data):
            raise HeaderError(f"bad TCP data offset {header_length}")
        mss = _parse_mss(data[HEADER_LENGTH:header_length])
    return Segment(
        sport, dport, seq, ack, flags, window, slice_view(data, header_length), mss
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

    It caches nothing: every header is packed by :func:`_build_header`.
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
