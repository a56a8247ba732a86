"""Send-side header templates.

The paper (§3.2): "the network I/O module associates with the
capability a template that constrains the header fields of packets sent
using that capability.  The network I/O module verifies this against
the library packet before network transmission" — this is what prevents
a library from impersonating another connection.

A template is a set of byte-range constraints checked against the IP
packet a library asks the module to transmit.  The check really
compares bytes; impersonation tests flip header fields and must be
refused.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
    """An ordered set of byte constraints over an outgoing IP packet."""

    def __init__(self, constraints: list[ByteConstraint], name: str = "") -> None:
        if not constraints:
            raise ValueError("a template needs at least one constraint")
        self.constraints = list(constraints)
        self.name = name
        self.checks = 0
        self.violations = 0
        #: Bytes from the front of the packet the constraints reach.
        self._span = max(c.offset + len(c.value) for c in self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def matches(self, packet: bytes) -> bool:
        """True when every constraint holds.

        The constrained prefix is read out of ``packet`` once — one
        walk of a fragment chain — and every constraint compares against
        that flat copy.
        """
        self.checks += 1
        prefix = packet[: self._span]
        for constraint in self.constraints:
            if not constraint.check(prefix):
                self.violations += 1
                return False
        return True

    def verify(self, packet: bytes) -> None:
        """Raise :class:`TemplateViolation` if the packet doesn't match."""
        if not self.matches(packet):
            raise TemplateViolation(
                f"packet violates send template {self.name!r}"
            )


def tcp_send_template(
    local_ip: int, local_port: int, remote_ip: int, remote_port: int
) -> HeaderTemplate:
    """Template binding a send capability to one TCP connection.

    Constrains (over the IP packet the library submits): IP protocol,
    source address (no address spoofing), destination address, and the
    TCP source/destination ports (no port hijacking).
    """
    ip_off = Ipv4Header.LENGTH
    return HeaderTemplate(
        [
            ByteConstraint(9, bytes([PROTO_TCP])),
            ByteConstraint(12, local_ip.to_bytes(4, "big")),
            ByteConstraint(16, remote_ip.to_bytes(4, "big")),
            ByteConstraint(ip_off, struct.pack("!HH", local_port, remote_port)),
        ],
        name=f"tcp {local_ip:#x}:{local_port}->{remote_ip:#x}:{remote_port}",
    )


def udp_send_template(
    local_ip: int, local_port: int
) -> HeaderTemplate:
    """Template for a UDP port binding: fixes protocol, source address,
    and source port; the destination is unconstrained (datagrams)."""
    ip_off = Ipv4Header.LENGTH
    return HeaderTemplate(
        [
            ByteConstraint(9, bytes([PROTO_UDP])),
            ByteConstraint(12, local_ip.to_bytes(4, "big")),
            ByteConstraint(ip_off, struct.pack("!H", local_port)),
        ],
        name=f"udp {local_ip:#x}:{local_port}",
    )
