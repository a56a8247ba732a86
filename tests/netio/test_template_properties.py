"""Send templates: the one-compare check against its definition.

A factory packs a ``HeaderTemplate`` as a mask and a value over the
packet's constrained prefix.  The ``ByteConstraint``s it lists stay
the readable definition and the oracle here: the packed verdict must
be theirs on any packet, a flip of any constrained byte must be
refused and a flip of any other accepted, and the two factories must
list one constraint per field (tenancy vets the source address and
port by offset).
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.headers import PROTO_TCP, PROTO_UDP, Ipv4Header
from repro.netio.template import (
    ByteConstraint,
    HeaderTemplate,
    TemplateViolation,
    tcp_send_template,
    udp_send_template,
)

addresses = st.integers(0, (1 << 32) - 1)
ports = st.integers(0, 0xFFFF)
tails = st.binary(max_size=40)


def oracle(template: HeaderTemplate, packet: bytes) -> bool:
    """The constraints' own verdict, one ``check`` each."""
    return all(constraint.check(packet) for constraint in template.constraints)


def matches(template: HeaderTemplate, packet: bytes) -> bool:
    """The packed verdict: ``verify`` raises or it does not."""
    try:
        template.verify(packet)
    except TemplateViolation:
        return False
    return True


def satisfying(template: HeaderTemplate, filler: bytes) -> bytearray:
    """``filler``, long enough, with every constraint written over it."""
    span = max(c.offset + len(c.value) for c in template.constraints)
    packet = bytearray(filler.ljust(span, b"\0"))
    for constraint in template.constraints:
        packet[constraint.offset : constraint.offset + len(constraint.value)] = constraint.value
    return packet


def factory_templates():
    tcp = st.builds(tcp_send_template, addresses, ports, addresses, ports)
    udp = st.builds(udp_send_template, addresses, ports)
    return st.one_of(tcp, udp)


@settings(max_examples=100, deadline=None)
@given(template=factory_templates(), filler=tails, data=st.data())
def test_a_flip_is_refused_inside_a_field_and_accepted_outside(template, filler, data):
    packet = satisfying(template, filler)
    assert matches(template, bytes(packet))
    constrained = {
        c.offset + i for c in template.constraints for i in range(len(c.value))
    }
    for position in range(len(packet)):
        flipped = bytearray(packet)
        flipped[position] ^= data.draw(st.integers(1, 0xFF), label=f"xor@{position}")
        assert matches(template, bytes(flipped)) is (position not in constrained)


@settings(max_examples=200, deadline=None)
@given(template=factory_templates(), filler=tails, cut=st.integers(1, 24))
def test_a_short_packet_is_refused(template, filler, cut):
    packet = bytes(satisfying(template, filler))
    span = max(c.offset + len(c.value) for c in template.constraints)
    short = packet[: max(0, span - cut)]
    assert not matches(template, short)
    assert not oracle(template, short)


@settings(max_examples=100, deadline=None)
@given(local_ip=addresses, local_port=ports, remote_ip=addresses, remote_port=ports)
def test_the_factories_list_one_constraint_per_field(local_ip, local_port, remote_ip, remote_port):
    ip_off = Ipv4Header.LENGTH
    tcp = tcp_send_template(local_ip, local_port, remote_ip, remote_port)
    assert tcp.constraints == [
        ByteConstraint(9, bytes([PROTO_TCP])),
        ByteConstraint(12, local_ip.to_bytes(4, "big")),
        ByteConstraint(16, remote_ip.to_bytes(4, "big")),
        ByteConstraint(ip_off, struct.pack("!HH", local_port, remote_port)),
    ]
    udp = udp_send_template(local_ip, local_port)
    assert udp.constraints == [
        ByteConstraint(9, bytes([PROTO_UDP])),
        ByteConstraint(12, local_ip.to_bytes(4, "big")),
        ByteConstraint(ip_off, struct.pack("!H", local_port)),
    ]
    for template in (tcp, udp):
        # The packed form is the definition's: same verdict from both.
        packet = bytes(satisfying(template, b""))
        assert matches(template, packet) and oracle(template, packet)
