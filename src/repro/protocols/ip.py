"""Sans-io IPv4: encapsulation, fragmentation, reassembly, and the
per-hop rewrite forwarding needs.

The paper's IP library "does not implement the functions required for
handling gateway traffic" — end hosts here likewise do no forwarding,
but the switched-fabric :class:`~repro.net.fabric.router.Router` does:
:func:`forwarded_copy` performs the one per-hop mutation IPv4 requires
(TTL decrement + checksum rebuild).  Fragmentation/reassembly is real:
a TCP/UDP payload larger than the link MTU leaves as multiple fragments
and is reassembled at the final destination (fragments forward like any
other packet; only endpoints reassemble).
"""

from __future__ import annotations

from ..counters import Counters
from dataclasses import dataclass, field
from typing import Optional

from ..net.buf import prepend, slice_view
from ..net.headers import (
    IP_FLAG_DF,
    IP_FLAG_MF,
    HeaderError,
    Ipv4Header,
)


class IpError(ValueError):
    """Invalid IP operation or datagram."""


#: Bit positions in the 20-byte header read big-endian as one integer:
#: the checksum at bytes 10-11, and one TTL step at byte 8.
_SUM_SHIFT = (Ipv4Header.LENGTH - 12) * 8
_TTL_ONE = 1 << (Ipv4Header.LENGTH - 9) * 8


def forwarded_copy(header: Ipv4Header, packet):
    """The per-hop rewrite: ``packet`` with TTL decremented and the
    header checksum patched incrementally (RFC 1624) — the payload is
    carried forward by reference, not copied.

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
    return prepend(
        head.to_bytes(Ipv4Header.LENGTH, "big"),
        slice_view(packet, Ipv4Header.LENGTH),
    )


@dataclass(frozen=True)
class IpDatagram:
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
        dont_fragment: bool = False,
    ) -> list:
        """Build the wire packet(s) for one transport payload.

        Each packet is the IP header prepended onto the (unsliced)
        transport payload — a fragment chain in zero-copy mode."""
        if mtu < Ipv4Header.LENGTH + 8:
            raise IpError(f"absurd MTU {mtu}")
        self._ident = (self._ident + 1) % 0x10000
        ident = self._ident
        self.stats["sent"] += 1
        max_data = mtu - Ipv4Header.LENGTH
        if len(payload) <= max_data:
            header = Ipv4Header(
                src=self.local_ip,
                dst=dst,
                protocol=protocol,
                total_length=Ipv4Header.LENGTH + len(payload),
                ident=ident,
                flags=IP_FLAG_DF if dont_fragment else 0,
                ttl=ttl,
            )
            return [prepend(header.pack(), payload)]
        if dont_fragment:
            raise IpError(
                f"payload of {len(payload)} bytes needs fragmentation "
                f"but DF is set (MTU {mtu})"
            )
        # Fragment: each fragment's data length a multiple of 8 except the last.
        chunk = (max_data // 8) * 8
        packets = []
        offset = 0
        while offset < len(payload):
            data = slice_view(payload, offset, min(offset + chunk, len(payload)))
            last = offset + len(data) >= len(payload)
            header = Ipv4Header(
                src=self.local_ip,
                dst=dst,
                protocol=protocol,
                total_length=Ipv4Header.LENGTH + len(data),
                ident=ident,
                flags=0 if last else IP_FLAG_MF,
                frag_offset=offset // 8,
                ttl=ttl,
            )
            packets.append(prepend(header.pack(), data))
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
            self.stats["bad_checksum"] += 1
            return None
        if header.dst != self.local_ip:
            self.stats["not_ours"] += 1
            return None
        if header.total_length < Ipv4Header.LENGTH:
            self.stats["bad_length"] += 1
            return None
        if header.total_length > len(packet):
            self.stats["bad_checksum"] += 1
            return None
        payload = slice_view(packet, Ipv4Header.LENGTH, header.total_length)
        self.stats["received"] += 1

        if header.frag_offset == 0 and not header.more_fragments:
            return IpDatagram(header.src, header.dst, header.protocol, payload)
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
        state.fragments[header.frag_offset * 8] = payload
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
        return IpDatagram(
            header.src, header.dst, header.protocol, bytes(data)
        )

    def expire(self, now: float) -> int:
        """Drop reassembly state older than the timeout.  Returns count."""
        stale = [
            key
            for key, state in self._reassembly.items()
            if now - state.first_seen > self.REASSEMBLY_TIMEOUT
        ]
        for key in stale:
            del self._reassembly[key]
        self.stats["expired"] += len(stale)
        return len(stale)

    @property
    def pending_reassemblies(self) -> int:
        return len(self._reassembly)
