"""Tests for ICMP destination-unreachable generation and parsing."""

import pytest

from repro.net.headers import PROTO_ICMP, PROTO_UDP, Ipv4Header, UdpHeader
from repro.protocols import (
    UNREACH_PORT,
    decode_unreachable,
    encode_unreachable,
    encode_datagram,
)
from repro.testbed import IP_A, IP_B, Testbed


def test_unreachable_codec_round_trip():
    original = (
        Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_UDP, total_length=36).pack()
        + encode_datagram(1111, 2222, b"lost", IP_A, IP_B).tobytes()
    )
    wire = encode_unreachable(UNREACH_PORT, original)
    message = decode_unreachable(wire)
    assert message is not None
    assert message.code == UNREACH_PORT
    assert message.original == original[:28]
    # The quoted bytes include the UDP ports of the offender.
    quoted_udp = UdpHeader.unpack(message.original[20:])
    assert (quoted_udp.sport, quoted_udp.dport) == (1111, 2222)


def test_unreachable_corruption_rejected():
    wire = bytearray(encode_unreachable(UNREACH_PORT, b"\x45" + b"\x00" * 27))
    wire[-1] ^= 0x01
    assert decode_unreachable(bytes(wire)) is None


def test_decode_unreachable_ignores_echo():
    from repro.protocols import encode_echo

    assert decode_unreachable(encode_echo(True, 1, 1)) is None


def test_udp_to_closed_port_draws_port_unreachable():
    testbed = Testbed(network="ethernet", organization="userlib")
    unreachables = []

    original_rx = testbed.host_a._kernel_rx

    def spying_rx(ethertype, payload, link_info, done):
        from repro.net.headers import ETHERTYPE_IP

        if ethertype == ETHERTYPE_IP:
            try:
                header = Ipv4Header.unpack(payload, verify=False)
            except Exception:
                header = None
            if header is not None and header.protocol == PROTO_ICMP:
                message = decode_unreachable(payload[Ipv4Header.LENGTH:])
                if message is not None:
                    unreachables.append(message)
        original_rx(ethertype, payload, link_info, done)

    testbed.host_a.netio.kernel_rx = spying_rx

    def sender():
        wire = encode_datagram(4444, 59999, b"nobody home", IP_A, IP_B)
        yield from testbed.host_a.ip_send(IP_B, PROTO_UDP, wire)
        yield testbed.sim.timeout(0.5)

    proc = testbed.spawn(sender(), name="sender")
    testbed.run(until=proc)
    assert len(unreachables) == 1
    assert unreachables[0].code == UNREACH_PORT
    quoted_udp = UdpHeader.unpack(unreachables[0].original[20:])
    assert quoted_udp.dport == 59999


def test_udp_to_bound_port_draws_no_unreachable():
    testbed = Testbed(network="ethernet", organization="userlib")
    testbed.host_b.udp_ports.bind(53, lambda d: None)
    icmp_seen = []

    original_rx = testbed.host_a._kernel_rx

    def spying_rx(ethertype, payload, link_info, done):
        from repro.net.headers import ETHERTYPE_IP

        if ethertype == ETHERTYPE_IP:
            try:
                header = Ipv4Header.unpack(payload, verify=False)
                if header.protocol == PROTO_ICMP:
                    icmp_seen.append(payload)
            except Exception:
                pass
        original_rx(ethertype, payload, link_info, done)

    testbed.host_a.netio.kernel_rx = spying_rx

    def sender():
        wire = encode_datagram(4444, 53, b"query", IP_A, IP_B)
        yield from testbed.host_a.ip_send(IP_B, PROTO_UDP, wire)
        yield testbed.sim.timeout(0.5)

    proc = testbed.spawn(sender(), name="sender")
    testbed.run(until=proc)
    assert icmp_seen == []
