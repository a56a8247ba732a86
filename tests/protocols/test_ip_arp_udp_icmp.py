"""Tests for the IP, ARP, UDP, and ICMP libraries."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import (
    ARP_REPLY,
    ARP_REQUEST,
    ArpPacket,
    BROADCAST_MAC,
    Ipv4Header,
    PROTO_TCP,
    PROTO_UDP,
    str_to_ip,
    str_to_mac,
)
from repro.protocols import (
    ArpStack,
    IpStack,
    SendArp,
    UdpError,
    UdpPortTable,
    decode_datagram,
    decode_echo,
    encode_datagram,
    encode_echo,
    make_reply,
)

IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")


# ----------------------------------------------------------------------
# IP
# ----------------------------------------------------------------------


def test_ip_small_payload_single_packet():
    ip = IpStack(IP_A)
    packets = ip.send(IP_B, PROTO_TCP, b"hello", mtu=1500)
    assert len(packets) == 1
    receiver = IpStack(IP_B)
    datagram = receiver.receive(packets[0])
    assert datagram is not None
    assert datagram.payload == b"hello"
    assert datagram.src == IP_A
    assert datagram.protocol == PROTO_TCP


def test_ip_total_length_below_header_is_dropped():
    """A valid header checksum does not vouch for ``total_length``: a
    packet claiming fewer bytes than its own header used to come back as
    an empty-payload datagram and be counted ``received``.  One claiming
    a byte more than arrived is the same lie.  The header decode refuses
    both, so both are booked as ``bad_header``, as the router books
    them."""
    receiver = IpStack(IP_B)

    def arrive(total_length):
        return receiver.receive(Ipv4Header(
            src=IP_A, dst=IP_B, protocol=PROTO_UDP, total_length=total_length
        ).pack() + b"x" * 30)

    assert arrive(5) is None     # Below the header length.
    assert arrive(51) is None    # One byte more than arrived.
    assert receiver.stats["bad_header"] == 2
    assert receiver.stats["received"] == 0
    assert arrive(50) is not None  # The control: every byte is there.
    # The boundary: a bare header is a legal (empty) datagram.
    bare = Ipv4Header(
        src=IP_A, dst=IP_B, protocol=PROTO_UDP, total_length=Ipv4Header.LENGTH
    ).pack()
    datagram = receiver.receive(bare)
    assert datagram is not None and len(datagram.payload) == 0
    assert receiver.stats["received"] == 2


def test_ip_fragmentation_and_reassembly():
    ip = IpStack(IP_A)
    payload = bytes(range(256)) * 20  # 5120 bytes.
    packets = ip.send(IP_B, PROTO_TCP, payload, mtu=1500)
    assert len(packets) == 4
    receiver = IpStack(IP_B)
    results = [receiver.receive(p) for p in packets]
    assert results[:-1] == [None, None, None]
    assert results[-1].payload == payload
    assert receiver.stats["reassembled"] == 1


def test_ip_fragments_reassemble_out_of_order():
    ip = IpStack(IP_A)
    payload = b"z" * 4000
    packets = ip.send(IP_B, PROTO_TCP, payload, mtu=1000)
    receiver = IpStack(IP_B)
    results = [receiver.receive(p) for p in reversed(packets)]
    final = [r for r in results if r is not None]
    assert len(final) == 1
    assert final[0].payload == payload


def test_ip_duplicate_fragment_harmless():
    ip = IpStack(IP_A)
    payload = b"d" * 3000
    packets = ip.send(IP_B, PROTO_TCP, payload, mtu=1500)
    receiver = IpStack(IP_B)
    receiver.receive(packets[0])
    receiver.receive(packets[0])  # Duplicate.
    results = [receiver.receive(p) for p in packets[1:]]
    final = [r for r in results if r is not None]
    assert len(final) == 1 and final[0].payload == payload


def test_ip_missing_fragment_blocks():
    ip = IpStack(IP_A)
    packets = ip.send(IP_B, PROTO_TCP, b"m" * 3000, mtu=1500)
    receiver = IpStack(IP_B)
    assert receiver.receive(packets[1]) is None
    assert receiver.pending_reassemblies == 1


def test_ip_reassembly_expiry():
    ip = IpStack(IP_A)
    packets = ip.send(IP_B, PROTO_TCP, b"m" * 4000, mtu=1500)
    assert len(packets) == 3
    receiver = IpStack(IP_B)
    receiver.receive(packets[0], now=0.0)
    receiver.receive(packets[2], now=0.0)
    assert receiver.expire(now=100.0) == 1  # One reassembly ...
    assert receiver.stats["expired"] == 2  # ... of two fragments, each a dropped frame.
    assert receiver.pending_reassemblies == 0


def test_ip_wrong_destination_dropped():
    ip = IpStack(IP_A)
    packets = ip.send(IP_B, PROTO_TCP, b"hi")
    other = IpStack(str_to_ip("10.0.0.99"))
    assert other.receive(packets[0]) is None
    assert other.stats["not_ours"] == 1


def test_ip_corrupted_header_dropped():
    ip = IpStack(IP_A)
    packet = bytearray(ip.send(IP_B, PROTO_TCP, b"hi")[0])
    packet[12] ^= 0xFF  # Corrupt the source address.
    receiver = IpStack(IP_B)
    assert receiver.receive(bytes(packet)) is None
    assert receiver.stats["bad_header"] == 1


def test_ip_interleaved_reassemblies_by_ident():
    sender = IpStack(IP_A)
    p1 = sender.send(IP_B, PROTO_TCP, b"a" * 2000, mtu=1500)
    p2 = sender.send(IP_B, PROTO_TCP, b"b" * 2000, mtu=1500)
    assert len(p1) == len(p2) == 2
    receiver = IpStack(IP_B)
    assert receiver.receive(p1[0]) is None
    assert receiver.receive(p2[0]) is None
    r2 = receiver.receive(p2[1])
    r1 = receiver.receive(p1[1])
    assert r1.payload == b"a" * 2000
    assert r2.payload == b"b" * 2000


@given(payload=st.binary(min_size=1, max_size=8000),
       mtu=st.integers(min_value=68, max_value=1500))
def test_ip_fragmentation_round_trip_property(payload, mtu):
    sender = IpStack(IP_A)
    receiver = IpStack(IP_B)
    packets = sender.send(IP_B, PROTO_TCP, payload, mtu=mtu)
    assert all(len(p) <= mtu for p in packets)
    results = [receiver.receive(p) for p in packets]
    final = [r for r in results if r is not None]
    assert len(final) == 1
    assert final[0].payload == payload


# ----------------------------------------------------------------------
# ARP
# ----------------------------------------------------------------------


def test_arp_request_reply_cycle():
    a = ArpStack(IP_A, MAC_A)
    b = ArpStack(IP_B, MAC_B)
    assert a.lookup(IP_B, now=0.0) is None
    request = a.resolve(IP_B, now=0.0)
    assert isinstance(request, SendArp)
    assert request.dst_mac == BROADCAST_MAC
    assert request.packet.oper == ARP_REQUEST and request.packet.target_ip == IP_B
    # b answers and learns a's binding.
    (reply,) = b.receive(request.packet.pack(), now=0.0)
    assert reply.packet.oper == ARP_REPLY
    assert reply.dst_mac == MAC_A
    assert b.lookup(IP_A, now=0.0) == MAC_A
    # a learns b from the reply, sends nothing back, and the next
    # lookup hits the cache.
    assert a.receive(reply.packet.pack(), now=0.1) == []
    assert a.lookup(IP_B, now=0.2) == MAC_B
    assert a.stats["requests_sent"] == 1
    assert a.stats["replies_received"] == 1


def test_arp_request_rate_limited():
    a = ArpStack(IP_A, MAC_A)
    assert a.resolve(IP_B, now=0.0) is not None
    assert a.resolve(IP_B, now=0.1) is None  # Within retry interval.
    assert a.resolve(IP_B, now=2.0) is not None
    assert a.stats["requests_sent"] == 2


def test_arp_cache_expiry():
    a = ArpStack(IP_A, MAC_A)
    a.receive(ArpPacket(ARP_REPLY, MAC_B, IP_B, MAC_A, IP_A).pack(), now=0.0)
    assert a.lookup(IP_B, now=100.0) == MAC_B
    assert a.lookup(IP_B, now=ArpStack.CACHE_TTL + 1) is None


def test_arp_learns_from_requests():
    b = ArpStack(IP_B, MAC_B)
    b.receive(
        ArpPacket(ARP_REQUEST, MAC_A, IP_A, b"\x00" * 6, IP_B).pack(), now=0.0
    )
    assert b.lookup(IP_A, now=1.0) == MAC_A


def test_arp_ignores_requests_for_others():
    b = ArpStack(IP_B, MAC_B)
    actions = b.receive(
        ArpPacket(
            ARP_REQUEST, MAC_A, IP_A, b"\x00" * 6, str_to_ip("10.0.0.77")
        ).pack(),
        now=0.0,
    )
    assert not any(isinstance(x, SendArp) for x in actions)
    assert b.lookup(IP_A, now=1.0) == MAC_A  # Learned all the same.


def test_arp_counts_a_malformed_packet():
    b = ArpStack(IP_B, MAC_B)
    assert b.receive(b"\x00" * 10, now=0.0) == []  # Short.
    request = ArpPacket(ARP_REQUEST, MAC_A, IP_A, b"\x00" * 6, IP_B).pack()
    assert b.receive(request[:7] + b"\x09" + request[8:], now=0.0) == []  # No such operation.
    assert b.stats["bad_header"] == 2
    assert b.lookup(IP_A, now=1.0) is None


# ----------------------------------------------------------------------
# UDP
# ----------------------------------------------------------------------


def test_udp_round_trip():
    wire = encode_datagram(1000, 53, b"query", IP_A, IP_B)
    datagram = decode_datagram(wire, IP_A, IP_B)
    assert datagram.payload == b"query"
    assert datagram.src_port == 1000
    assert datagram.dst_port == 53


def test_udp_checksum_detects_corruption():
    from repro.net.headers import HeaderError

    wire = bytearray(encode_datagram(1, 2, b"data!!", IP_A, IP_B))
    wire[-1] ^= 0x40
    with pytest.raises(HeaderError):
        decode_datagram(bytes(wire), IP_A, IP_B)


def test_udp_port_table_dispatch():
    table = UdpPortTable()
    got = []
    table.bind(53, got.append)
    wire = encode_datagram(999, 53, b"ask", IP_A, IP_B)
    assert table.deliver(wire, IP_A, IP_B)
    assert got[0].payload == b"ask"


def test_udp_unbound_port_counted():
    table = UdpPortTable()
    wire = encode_datagram(999, 53, b"ask", IP_A, IP_B)
    assert not table.deliver(wire, IP_A, IP_B)
    assert table.stats["no_port"] == 1


def test_udp_double_bind_rejected():
    table = UdpPortTable()
    table.bind(53, lambda d: None)
    with pytest.raises(UdpError):
        table.bind(53, lambda d: None)


def test_udp_bind_names_its_port():
    with pytest.raises(UdpError):
        UdpPortTable().bind(0, lambda d: None)


@given(payload=st.binary(max_size=1000))
def test_udp_round_trip_property(payload):
    wire = encode_datagram(1, 2, payload, IP_A, IP_B)
    assert decode_datagram(wire, IP_A, IP_B).payload == payload


# ----------------------------------------------------------------------
# ICMP
# ----------------------------------------------------------------------


def test_icmp_echo_round_trip():
    wire = encode_echo(True, ident=7, seq=3, payload=b"ping!")
    message = decode_echo(wire)
    assert message is not None
    assert message.is_request
    assert message.ident == 7
    assert message.payload == b"ping!"


def test_icmp_reply_matches_request():
    request = decode_echo(encode_echo(True, 7, 3, b"abc"))
    reply_wire = make_reply(request)
    reply = decode_echo(reply_wire)
    assert not reply.is_request
    assert reply.ident == 7 and reply.seq == 3
    assert reply.payload == b"abc"


def test_icmp_corruption_rejected():
    wire = bytearray(encode_echo(True, 1, 1, b"data"))
    wire[-2] ^= 0x08
    assert decode_echo(bytes(wire)) is None


def test_icmp_cannot_reply_to_reply():
    reply = decode_echo(encode_echo(False, 1, 1))
    with pytest.raises(ValueError):
        make_reply(reply)
