"""Send templates: the one-compare check against its definition.

``HeaderTemplate`` compiles its ``ByteConstraint``s into a mask and a
value over the packet's constrained prefix.  The constraints stay the
readable definition and the oracle here: the compiled verdict must be
theirs on any packet, a flip of any constrained byte must be refused
and a flip of any other accepted, and the two factories must still
list one constraint per field (tenancy vets the source address and
port by offset).
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.headers import PROTO_TCP, PROTO_UDP, Ipv4Header
from repro.netio.template import (
    ByteConstraint,
    HeaderTemplate,
    tcp_send_template,
    udp_send_template,
)

addresses = st.integers(0, (1 << 32) - 1)
ports = st.integers(0, 0xFFFF)
tails = st.binary(max_size=40)


def oracle(template: HeaderTemplate, packet: bytes) -> bool:
    """The constraints' own verdict, one ``check`` each."""
    return all(constraint.check(packet) for constraint in template.constraints)


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
    assert template.matches(bytes(packet))
    constrained = {
        c.offset + i for c in template.constraints for i in range(len(c.value))
    }
    for position in range(len(packet)):
        flipped = bytearray(packet)
        flipped[position] ^= data.draw(st.integers(1, 0xFF), label=f"xor@{position}")
        assert template.matches(bytes(flipped)) is (position not in constrained)


@settings(max_examples=200, deadline=None)
@given(template=factory_templates(), filler=tails, cut=st.integers(1, 24))
def test_a_short_packet_is_refused(template, filler, cut):
    packet = bytes(satisfying(template, filler))
    span = max(c.offset + len(c.value) for c in template.constraints)
    short = packet[: max(0, span - cut)]
    assert not template.matches(short)
    assert not oracle(template, short)


constraints = st.lists(
    st.builds(ByteConstraint, st.integers(0, 40), st.binary(max_size=6)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(constraints=constraints, filler=st.binary(max_size=60), satisfy=st.booleans())
# Two constraints that disagree on a byte hold on no packet, not on
# one that carries the bits of both.
@example([ByteConstraint(0, b"\x01"), ByteConstraint(0, b"\x03")], b"", True)
@example([ByteConstraint(1, b"\x01\x02"), ByteConstraint(2, b"\x06")], b"", True)
def test_the_compiled_verdict_is_the_constraints(constraints, filler, satisfy):
    """Any constraint set — overlapping, conflicting, empty-valued —
    on any packet, random or built to satisfy them in order."""
    template = HeaderTemplate(constraints)
    packet = bytes(satisfying(template, filler)) if satisfy else filler
    assert template.matches(packet) is oracle(template, packet)
    assert template.checks == 1
    assert template.violations == (0 if oracle(template, packet) else 1)


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
    assert (len(tcp), len(udp)) == (4, 3)
    for template in (tcp, udp):
        # The compiled form is the definition's: same verdict from both.
        rebuilt = HeaderTemplate(template.constraints)
        packet = bytes(satisfying(template, b""))
        assert rebuilt.matches(packet) and template.matches(packet)
        assert (rebuilt._span, rebuilt._mask, rebuilt._want) == (
            template._span, template._mask, template._want,
        )
