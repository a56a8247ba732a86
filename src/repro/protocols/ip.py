"""Sans-io IPv4: encapsulation, fragmentation, reassembly, and the
per-hop rewrite forwarding needs.

The paper's IP library "does not implement the functions required for
handling gateway traffic" — end hosts here likewise do no forwarding,
but the switched-fabric :class:`~repro.net.fabric.router.Router` does:
:func:`forwarded_header` performs the one per-hop mutation IPv4 requires
(TTL decrement + checksum patch).  Fragmentation/reassembly is real:
a TCP/UDP payload larger than the link MTU leaves as multiple fragments
and is reassembled at the final destination (fragments forward like any
other packet; only endpoints reassemble).
"""

from __future__ import annotations

from ..counters import Counters
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..net.buf import prepend, slice_view
from ..net.headers import IP_FLAG_MF, HeaderError, Ipv4Header, pack_ipv4, record


class IpError(ValueError):
    """Invalid IP operation or datagram."""


#: Bit positions in the 20-byte header read big-endian as one integer:
#: the checksum at bytes 10-11, and one TTL step at byte 8.
_SUM_SHIFT = (Ipv4Header.LENGTH - 12) * 8
_TTL_ONE = 1 << (Ipv4Header.LENGTH - 9) * 8


def forwarded_header(header: Ipv4Header, packet) -> bytes:
    """The per-hop rewrite: the 20 bytes of ``packet``'s header with the
    TTL decremented and the checksum patched incrementally (RFC 1624).
    The rest of the packet is not touched: the router puts these bytes
    and the next hop's link header in front of a view of it, one chain
    per hop (``NetworkIoModule.kernel_send(..., head=)``).

    ``header`` must be the already-unpacked header of ``packet``.
    Raises :class:`IpError` if the TTL cannot be decremented — the
    caller (a router) must instead drop the packet and send ICMP
    time-exceeded.

    The patch is arithmetic on the header read as one 160-bit integer.
    The TTL is the high octet of the word m at bytes 8-9, so m' is
    m - 0x0100 and RFC 1624 eqn. 3, HC' = ~(~HC + ~m + m'), closes to
    HC' = ~(~HC + 0xFEFF) whatever m is: nothing is summed.
    """
    if header.ttl <= 1:
        raise IpError("TTL expired in transit")
    head = int.from_bytes(packet[: Ipv4Header.LENGTH], "big")
    checksum = head >> _SUM_SHIFT & 0xFFFF
    # ~HC + 0xFEFF is never zero, so its fold is its residue with 0
    # standing for 0xFFFF.
    patched = 0xFFFF - (((~checksum & 0xFFFF) + 0xFEFF) % 0xFFFF or 0xFFFF)
    head += ((patched - checksum) << _SUM_SHIFT) - _TTL_ONE
    return head.to_bytes(Ipv4Header.LENGTH, "big")


def encapsulate(
    src: int,
    dst: int,
    protocol: int,
    payload,
    ident: int = 0,
    flags: int = 0,
    frag_offset: int = 0,
    ttl: int = 64,
):
    """``payload`` behind an IPv4 header, prepended onto the unsliced
    payload as a fragment chain, fused when it reaches a wire."""
    length = Ipv4Header.LENGTH + len(payload)
    return prepend(pack_ipv4(src, dst, protocol, length, ident, flags, frag_offset, ttl), payload)


@record
class IpDatagram(NamedTuple):
    """A reassembled datagram handed up to the transport."""

    src: int
    dst: int
    protocol: int
    payload: bytes


@dataclass
class _Reassembly:
    """State for one in-progress fragmented datagram."""

    fragments: dict[int, bytes] = field(default_factory=dict)  # offset->data
    total_length: Optional[int] = None  # Data length once the last frag is seen.
    first_seen: float = 0.0


class IpStack:
    """One host's IP layer (sans-io).

    ``send`` turns a transport payload into wire packets; ``receive``
    turns a wire packet into zero or one :class:`IpDatagram` (zero while
    fragments are outstanding).  Time is passed in for reassembly
    expiry; the caller drives :meth:`expire` off its clock.
    """

    #: Reassembly timeout (RFC 791 suggests 15 s at TTL granularity).
    REASSEMBLY_TIMEOUT = 30.0

    def __init__(self, local_ip: int) -> None:
        self.local_ip = local_ip
        self._ident = 0
        self._reassembly: dict[tuple[int, int, int, int], _Reassembly] = {}
        self.stats = Counters()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def send(
        self,
        dst: int,
        protocol: int,
        payload: bytes,
        mtu: int = 1500,
        ttl: int = 64,
        head: bytes = b"",
        length: Optional[int] = None,
    ) -> list:
        """Build the wire packet(s) for ``head`` (a transport header its
        sender packed, TCP's) and ``payload``: one image, the IPv4 header
        and ``head``, prepended onto the unsliced payload, or fragments
        of the two when they exceed ``mtu``; ``length``, the two's, if measured."""
        if mtu < Ipv4Header.LENGTH + 8:
            raise IpError(f"absurd MTU {mtu}")
        self._ident = ident = (self._ident + 1) % 0x10000
        self.stats["sent"] += 1
        if length is None:
            length = len(head) + len(payload) if head else len(payload)
        if length <= mtu - Ipv4Header.LENGTH:
            header = pack_ipv4(
                self.local_ip, dst, protocol, Ipv4Header.LENGTH + length, ident, 0, 0, ttl
            )
            return [prepend(header + head, payload)]
        if head:
            payload = prepend(head, payload)
        # Fragment: each fragment's data length a multiple of 8 except the last.
        chunk = ((mtu - Ipv4Header.LENGTH) // 8) * 8
        packets = []
        offset = 0
        while offset < length:
            data = slice_view(payload, offset, min(offset + chunk, length))
            last = offset + len(data) >= length
            packets.append(encapsulate(
                self.local_ip, dst, protocol, data, ident,
                0 if last else IP_FLAG_MF, offset // 8, ttl,
            ))
            offset += len(data)
        self.stats["fragments_sent"] += len(packets)
        return packets

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------

    def receive(self, packet, now: float = 0.0) -> Optional[IpDatagram]:
        """Process one wire packet; returns a datagram when complete.

        The datagram's payload is a zero-copy view into ``packet``.
        Malformed or misaddressed packets are counted and dropped
        (returning None), never raised — input comes from the network.
        """
        try:
            header = Ipv4Header.unpack(packet)
        except HeaderError:
            # Bad checksum or total length, not version 4, options, or short.
            self.stats["bad_header"] += 1
            return None
        if header.dst != self.local_ip:
            self.stats["not_ours"] += 1
            return None
        payload = slice_view(packet, Ipv4Header.LENGTH, header.total_length)
        self.stats["received"] += 1

        if header.frag_offset == 0 and not header.more_fragments:
            return IpDatagram.build((header.src, header.dst, header.protocol, payload))
        return self._reassemble(header, payload, now)

    def _reassemble(
        self, header: Ipv4Header, payload: bytes, now: float
    ) -> Optional[IpDatagram]:
        self.stats["fragments_received"] += 1
        key = (header.src, header.dst, header.protocol, header.ident)
        state = self._reassembly.get(key)
        if state is None:
            state = _Reassembly(first_seen=now)
            self._reassembly[key] = state
        offset = header.frag_offset * 8
        if offset in state.fragments:  # A duplicate: the first copy stays.
            self.stats["duplicate"] += 1
            return None
        state.fragments[offset] = payload
        if not header.more_fragments:
            state.total_length = header.frag_offset * 8 + len(payload)
        if state.total_length is None:
            return None
        # Check contiguity.
        data = bytearray(state.total_length)
        covered = 0
        for offset in sorted(state.fragments):
            chunk = state.fragments[offset]
            if offset > covered:
                return None  # Hole remains.
            end = offset + len(chunk)
            data[offset:end] = chunk
            covered = max(covered, end)
        if covered < state.total_length:
            return None
        del self._reassembly[key]
        self.stats["reassembled"] += 1
        return IpDatagram.build((header.src, header.dst, header.protocol, bytes(data)))

    def expire(self, now: float) -> int:
        """Drop reassembly state older than the timeout, counting the
        fragments it held as ``expired``.  Returns the reassemblies
        dropped."""
        stale = [
            key
            for key, state in self._reassembly.items()
            if now - state.first_seen > self.REASSEMBLY_TIMEOUT
        ]
        for key in stale:
            self.stats["expired"] += len(self._reassembly.pop(key).fragments)
        return len(stale)

    @property
    def pending_reassemblies(self) -> int:
        return len(self._reassembly)
