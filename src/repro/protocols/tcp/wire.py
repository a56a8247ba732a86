"""TCP segments and their wire encoding.

:class:`Segment` is the in-machine representation (header fields +
payload bytes).  :func:`encode_segment` / :func:`decode_segment` convert
to and from real bytes, computing and verifying the genuine
pseudo-header checksum — corrupted segments fail to decode and the
plumbing drops them, exactly as a real input path would.

Encoding is zero-copy: the 20-byte header is built once and *prepended*
onto the caller's payload as a fragment chain (no payload copy), with
the checksum computed over the unjoined parts.  On top of that,
:class:`TcpSegmentEncoder` gives each connection a template fast path —
the previous headers are cached and, when only ack/window moved, patched
with RFC 1624 incremental checksum updates; a retransmission of a cached
segment reuses its header image outright.
"""

from __future__ import annotations

from ...counters import Counters
from dataclasses import dataclass, field
from typing import Optional

from ...net.buf import prepend, slice_view
from ...net.checksum import checksum_parts, incremental_update, pseudo_header
from ...net.headers import (
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    HeaderError,
    TcpHeader,
)


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
        header = TcpHeader.LENGTH + (4 if self.mss is not None else 0)
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
    """The segment's TCP header bytes with a correct checksum in place."""
    header = TcpHeader(
        sport=segment.sport,
        dport=segment.dport,
        seq=segment.seq,
        ack=segment.ack,
        flags=segment.flags,
        window=segment.window,
        checksum=0,
        mss=segment.mss,
    )
    head = bytearray(header.pack())
    pseudo = pseudo_header(
        src_ip, dst_ip, PROTO_TCP, len(head) + len(segment.payload)
    )
    checksum = checksum_parts(pseudo, head, segment.payload)
    head[16:18] = checksum.to_bytes(2, "big")
    return bytes(head)


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
    header = TcpHeader.unpack(data)
    payload = slice_view(data, header.header_length)
    return Segment(
        sport=header.sport,
        dport=header.dport,
        seq=header.seq,
        ack=header.ack,
        flags=header.flags,
        window=header.window,
        payload=payload,
        mss=header.mss,
    )


class TcpSegmentEncoder:
    """Per-connection template encoder with an incremental-checksum
    fast path.

    The paper's send path preformats what it can; this encoder goes one
    step further in the spirit of ``netio/template.py``: the header
    image of each recently sent segment is cached under
    ``(seq, len, flags)``.  A retransmission reuses the image outright;
    a segment where only ack/window advanced patches those fields and
    updates the checksum per RFC 1624 instead of resumming header and
    payload.  SYN segments (MSS option changes the header length) take
    the ordinary full-encode path.

    Output is byte-identical to :func:`encode_segment` — the
    equivalence fuzz suite holds it to that.
    """

    #: Cached header images kept per connection (covers the usual
    #: retransmit window without unbounded growth).
    CACHE_DEPTH = 32

    #: Process-wide aggregate across every encoder instance, so
    #: benchmarks can report template hit rates without tracking each
    #: connection object.  Reset alongside the buf copy counters.
    GLOBAL_STATS = {
        "full_encodes": 0,
        "template_patches": 0,
        "retransmit_reuses": 0,
    }

    _ACK_OFF = 8     # 32-bit ack field.
    _WIN_OFF = 14    # 16-bit window field.
    _SUM_OFF = 16    # 16-bit checksum field.

    def __init__(self, sport: int, dport: int, src_ip: int, dst_ip: int) -> None:
        self.sport = sport
        self.dport = dport
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        #: (seq, payload_len, flags) -> [header bytes, payload ref].
        self._cache: dict = {}
        self.stats = Counters()

    def encode(self, segment: Segment):
        """Encode ``segment``; equivalent to :func:`encode_segment`."""
        if (
            segment.mss is not None
            or segment.sport != self.sport
            or segment.dport != self.dport
        ):
            self._bump("full_encodes")
            return encode_segment(segment, self.src_ip, self.dst_ip)

        payload = segment.payload
        key = (segment.seq, len(payload), segment.flags)
        entry = self._cache.get(key)
        if entry is not None and self._same_payload(entry[1], payload):
            head = entry[0]
            patched = self._patch(head, segment)
            if patched is None:
                # Bit-for-bit retransmission: reuse the cached image.
                self._bump("retransmit_reuses")
                return prepend(head, entry[1])
            entry[0] = patched
            self._bump("template_patches")
            return prepend(patched, entry[1])

        head = _build_header(segment, self.src_ip, self.dst_ip)
        self._bump("full_encodes")
        if len(self._cache) >= self.CACHE_DEPTH:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = [head, payload]
        return prepend(head, payload)

    def _bump(self, key: str) -> None:
        self.stats[key] += 1
        TcpSegmentEncoder.GLOBAL_STATS[key] += 1

    @classmethod
    def reset_global_stats(cls) -> None:
        for key in cls.GLOBAL_STATS:
            cls.GLOBAL_STATS[key] = 0

    @staticmethod
    def _same_payload(cached, payload) -> bool:
        return cached is payload or bytes(cached) == bytes(payload)

    def _patch(self, head: bytes, segment: Segment):
        """Header image for ``segment`` from cached ``head``, or ``None``
        if the cached image is already exact."""
        old_ack = head[self._ACK_OFF : self._ACK_OFF + 4]
        old_win = head[self._WIN_OFF : self._WIN_OFF + 2]
        new_ack = segment.ack.to_bytes(4, "big")
        new_win = segment.window.to_bytes(2, "big")
        if old_ack == new_ack and old_win == new_win:
            return None
        checksum = int.from_bytes(head[self._SUM_OFF : self._SUM_OFF + 2], "big")
        patched = bytearray(head)
        if old_ack != new_ack:
            checksum = incremental_update(checksum, old_ack, new_ack)
            patched[self._ACK_OFF : self._ACK_OFF + 4] = new_ack
        if old_win != new_win:
            checksum = incremental_update(checksum, old_win, new_win)
            patched[self._WIN_OFF : self._WIN_OFF + 2] = new_win
        patched[self._SUM_OFF : self._SUM_OFF + 2] = checksum.to_bytes(2, "big")
        return bytes(patched)
