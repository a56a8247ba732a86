"""Send-side header templates.

The paper (§3.2): "the network I/O module associates with the
capability a template that constrains the header fields of packets sent
using that capability.  The network I/O module verifies this against
the library packet before network transmission" — this is what prevents
a library from impersonating another connection.

A template is a set of byte-range constraints checked against the IP
packet a library asks the module to transmit.  The check really
compares bytes — compiled to one masked compare of the constrained
prefix; impersonation tests flip header fields and must be refused.
The prefix is read in place from a library's header image; a chain
split inside it is walked, and judged the same.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..net.buf import PacketBuffer
from ..net.headers import Ipv4Header, PROTO_TCP, PROTO_UDP


class TemplateViolation(Exception):
    """An outgoing packet did not match its send capability's template."""


@dataclass(frozen=True)
class ByteConstraint:
    """``packet[offset : offset+len(value)] == value``."""

    offset: int
    value: bytes

    def check(self, packet: bytes) -> bool:
        return packet[self.offset : self.offset + len(self.value)] == self.value


class HeaderTemplate:
    """An ordered set of byte constraints over an outgoing IP packet,
    compiled to one compare.

    The constraints are the template's readable definition (and what
    tenancy vets at registration); the check itself reads the packet's
    constrained prefix as one big-endian integer ``p`` and accepts it
    when ``p & mask == want`` — every constrained byte set in ``mask``
    and its required value in ``want``.  A packet shorter than the
    prefix is refused, exactly as a constraint past its end fails.
    """

    @classmethod
    def _packed(
        cls, image: bytes, mask: int, fields: tuple[tuple[int, int], ...], name: str
    ) -> "HeaderTemplate":
        """A template whose constrained bytes are ``image`` under
        ``mask``, packed by a factory.  ``fields`` lists each
        constrained field's ``(offset, length)``, from which
        :attr:`constraints` is derived."""
        template = cls.__new__(cls)
        template.name = name
        template.checks = 0
        template.violations = 0
        #: Bytes from the front of the packet the constraints reach.
        template._span = len(image)
        template._mask = mask
        template._want = int.from_bytes(image, "big")
        template._constraints = None
        template._fields = fields
        return template

    @property
    def constraints(self) -> list[ByteConstraint]:
        """One :class:`ByteConstraint` per constrained field."""
        if self._constraints is None:
            image = self._want.to_bytes(self._span, "big")
            self._constraints = [
                ByteConstraint(offset, image[offset : offset + length])
                for offset, length in self._fields
            ]
        return self._constraints

    def verify(self, packet: bytes) -> None:
        """Raise :class:`TemplateViolation` if the packet doesn't match.

        The constrained prefix is read out of ``packet`` once — in
        place from a chain's header image, by one walk of any other
        chain — and compared in one operation.
        """
        self.checks += 1
        span = self._span
        prefix = packet.prefix(span) if type(packet) is PacketBuffer else packet[:span]
        if len(prefix) != span or int.from_bytes(prefix, "big") & self._mask != self._want:
            self.violations += 1
            raise TemplateViolation(
                f"packet violates send template {self.name!r}"
            )


def _mask(span: int, fields: tuple[tuple[int, int], ...]) -> int:
    """The compare mask of ``fields``, ``(offset, length)`` pairs, over
    a ``span``-byte prefix."""
    mask = 0
    for offset, length in fields:
        mask |= ((1 << 8 * length) - 1) << 8 * (span - offset - length)
    return mask


#: The constrained bytes of a TCP send template, packed in one go: IP
#: protocol (9), source address (12), destination address (16), and the
#: TCP source and destination ports (the first four octets of the IP
#: payload).
_TCP_IMAGE = struct.Struct("!9xB2xIIHH")
_TCP_FIELDS = ((9, 1), (12, 4), (16, 4), (Ipv4Header.LENGTH, 4))
_TCP_MASK = _mask(_TCP_IMAGE.size, _TCP_FIELDS)
#: A UDP binding's: protocol, source address, source port.
_UDP_IMAGE = struct.Struct("!9xB2xI4xH")
_UDP_FIELDS = ((9, 1), (12, 4), (Ipv4Header.LENGTH, 2))
_UDP_MASK = _mask(_UDP_IMAGE.size, _UDP_FIELDS)


def tcp_send_template(
    local_ip: int, local_port: int, remote_ip: int, remote_port: int
) -> HeaderTemplate:
    """Template binding a send capability to one TCP connection.

    Constrains (over the IP packet the library submits): IP protocol,
    source address (no address spoofing), destination address, and the
    TCP source/destination ports (no port hijacking).
    """
    return HeaderTemplate._packed(
        _TCP_IMAGE.pack(PROTO_TCP, local_ip, remote_ip, local_port, remote_port),
        _TCP_MASK,
        _TCP_FIELDS,
        f"tcp {local_ip:#x}:{local_port}->{remote_ip:#x}:{remote_port}",
    )


def udp_send_template(
    local_ip: int, local_port: int
) -> HeaderTemplate:
    """Template for a UDP port binding: fixes protocol, source address,
    and source port; the destination is unconstrained (datagrams)."""
    return HeaderTemplate._packed(
        _UDP_IMAGE.pack(PROTO_UDP, local_ip, local_port),
        _UDP_MASK,
        _UDP_FIELDS,
        f"udp {local_ip:#x}:{local_port}",
    )
