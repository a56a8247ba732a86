"""Tests for wire-format headers: pack/unpack round trips and validation.

TCP's header has no record of its own: ``Segment`` is packed and parsed
by ``repro.protocols.tcp.wire``, so its cases go through
``encode_segment`` / ``decode_segment(verify=False)``.  Every other
header is a record whose caller values ``pack()`` checks and whose wire
values ``unpack()`` checks, so a validation case packs a bad record or
unpacks crafted bytes.
"""

import ast
import cProfile
import dataclasses
import struct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.buf import as_wire_bytes
from repro.net.headers import (
    ARP_REPLY,
    ARP_REQUEST,
    An1Header,
    ArpPacket,
    BROADCAST_MAC,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    EthernetHeader,
    HeaderError,
    IcmpHeader,
    Ipv4Header,
    PROTO_TCP,
    TCP_ACK,
    TCP_SYN,
    UdpHeader,
    ip_to_str,
    mac_to_str,
    str_to_ip,
    str_to_mac,
)
from repro.netio.demux import DemuxDecision, FlowKey
from repro.netio.module import LinkInfo
from repro.protocols.ip import IpDatagram
from repro.protocols.tcp.actions import (
    DELIVER_FIN, NOTIFY_CONNECTED, CancelTimer, DeliverData, DeliverFin, EmitSegment,
    NotifyClosed, NotifyConnected, SendSpaceAvailable, SetTimer,
)
from repro.protocols.tcp.events import (
    APP_ABORT, APP_CLOSE, AppAbort, AppClose, AppRead, AppSend, SegmentArrives, TimerExpires,
)
from repro.protocols.tcp.wire import Segment
from repro.protocols.tcp.wire import (
    HEADER_LENGTH,
    Segment,
    decode_segment,
    encode_segment,
)

MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")
IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")


# ----------------------------------------------------------------------
# Address helpers
# ----------------------------------------------------------------------


def test_mac_round_trip():
    assert str_to_mac(mac_to_str(MAC_A)) == MAC_A
    assert mac_to_str(BROADCAST_MAC) == "ff:ff:ff:ff:ff:ff"


def test_bad_mac_rejected():
    with pytest.raises(ValueError):
        str_to_mac("02:00:00")


def test_ip_round_trip():
    assert ip_to_str(str_to_ip("10.1.2.3")) == "10.1.2.3"
    assert str_to_ip("0.0.0.0") == 0
    assert str_to_ip("255.255.255.255") == 0xFFFFFFFF


@given(ip=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ip_round_trip_property(ip):
    assert str_to_ip(ip_to_str(ip)) == ip


def test_bad_ip_rejected():
    with pytest.raises(ValueError):
        str_to_ip("1.2.3")
    with pytest.raises(ValueError):
        str_to_ip("1.2.3.999")


# ----------------------------------------------------------------------
# Ethernet / AN1
# ----------------------------------------------------------------------


def test_ethernet_round_trip():
    header = EthernetHeader(MAC_A, MAC_B, ETHERTYPE_IP)
    data = header.pack()
    assert len(data) == EthernetHeader.LENGTH
    assert EthernetHeader.unpack(data) == header


def test_ethernet_short_data_rejected():
    with pytest.raises(HeaderError):
        EthernetHeader.unpack(b"\x00" * 10)


def test_ethernet_bad_mac_rejected():
    with pytest.raises(HeaderError):
        EthernetHeader(b"\x00" * 5, MAC_B, ETHERTYPE_IP).pack()
    with pytest.raises(HeaderError):
        EthernetHeader(MAC_A, MAC_B, 0x10000).pack()


def test_an1_round_trip_with_bqi():
    header = An1Header(dst=3, src=7, ethertype=ETHERTYPE_IP, bqi=42)
    data = header.pack()
    assert len(data) == An1Header.LENGTH
    parsed = An1Header.unpack(data)
    assert parsed == header
    assert parsed.bqi == 42


def test_an1_field_validation():
    assert An1Header(dst=3, src=7, ethertype=ETHERTYPE_IP).bqi == 0
    with pytest.raises(HeaderError):
        An1Header(dst=0x10000, src=0, ethertype=0).pack()
    with pytest.raises(HeaderError):
        An1Header(dst=1, src=0, ethertype=0, bqi=-1).pack()


# ----------------------------------------------------------------------
# ARP
# ----------------------------------------------------------------------


def test_arp_round_trip():
    packet = ArpPacket(
        ARP_REQUEST, MAC_A, str_to_ip("10.0.0.1"), b"\x00" * 6, str_to_ip("10.0.0.2")
    )
    data = packet.pack()
    assert len(data) == ArpPacket.LENGTH
    assert ArpPacket.unpack(data) == packet


def test_arp_reply_round_trip():
    packet = ArpPacket(
        ARP_REPLY, MAC_B, str_to_ip("10.0.0.2"), MAC_A, str_to_ip("10.0.0.1")
    )
    assert ArpPacket.unpack(packet.pack()).oper == ARP_REPLY


def test_arp_bad_operation_rejected():
    """The operation is a wire value, refused on decode; a bad MAC is
    the caller's, refused on pack."""
    wire = bytearray(ArpPacket(ARP_REQUEST, MAC_A, 0, MAC_B, 0).pack())
    wire[7] = 3  # Operation 3: neither request nor reply.
    with pytest.raises(HeaderError):
        ArpPacket.unpack(bytes(wire))
    with pytest.raises(HeaderError):
        ArpPacket(ARP_REQUEST, MAC_A[:5], 0, MAC_B, 0).pack()


# ----------------------------------------------------------------------
# IPv4
# ----------------------------------------------------------------------


def test_ipv4_round_trip_and_checksum():
    header = Ipv4Header(
        src=str_to_ip("10.0.0.1"),
        dst=str_to_ip("10.0.0.2"),
        protocol=PROTO_TCP,
        total_length=40,
        ident=99,
        ttl=32,
    )
    data = header.pack()
    assert len(data) == Ipv4Header.LENGTH
    # A verified parse reads a whole packet: ``total_length`` must fit it.
    with pytest.raises(HeaderError):
        Ipv4Header.unpack(data)
    parsed = Ipv4Header.unpack(data + bytes(20))
    assert parsed.src == header.src
    assert parsed.ident == 99
    assert parsed.ttl == 32


def test_ipv4_checksum_corruption_detected():
    header = Ipv4Header(
        src=str_to_ip("10.0.0.1"),
        dst=str_to_ip("10.0.0.2"),
        protocol=PROTO_TCP,
        total_length=40,
    )
    data = bytearray(header.pack())
    data[8] ^= 0xFF  # Corrupt the TTL.
    with pytest.raises(HeaderError):
        Ipv4Header.unpack(bytes(data))
    # Unverified parse still works (for diagnostics).
    parsed = Ipv4Header.unpack(bytes(data), verify=False)
    assert parsed.ttl != header.ttl


def test_ipv4_fragment_fields():
    header = Ipv4Header(
        src=1,
        dst=2,
        protocol=PROTO_TCP,
        total_length=100,
        flags=0x1,
        frag_offset=185,
    )
    parsed = Ipv4Header.unpack(header.pack(), verify=False)
    assert parsed.more_fragments
    assert parsed.frag_offset == 185


def test_ipv4_rejects_non_v4():
    data = bytearray(
        Ipv4Header(src=1, dst=2, protocol=6, total_length=20).pack()
    )
    data[0] = (6 << 4) | 5  # Claim IPv6.
    with pytest.raises(HeaderError):
        Ipv4Header.unpack(bytes(data))


def test_ipv4_field_validation():
    """``frag_offset`` is checked by hand: it shares its 16-bit slot
    with the flags, so ``struct`` would pack 0x2000 as a flag bit."""
    for fields in ({"total_length": 0x10000}, {"ttl": 300}, {"frag_offset": 0x2000}):
        header = Ipv4Header(src=1, dst=2, protocol=6, **{"total_length": 20, **fields})
        with pytest.raises(HeaderError):
            header.pack()


# ----------------------------------------------------------------------
# UDP / TCP / ICMP
# ----------------------------------------------------------------------


def test_udp_round_trip():
    header = UdpHeader(sport=53, dport=1024, length=36, checksum=0xABCD)
    assert UdpHeader.unpack(header.pack()) == header


def test_udp_validation():
    with pytest.raises(HeaderError):
        UdpHeader(sport=70000, dport=1, length=8).pack()
    # A length below the header's own is a wire value, refused on decode.
    with pytest.raises(HeaderError):
        UdpHeader.unpack(struct.pack("!HHHH", 1, 1, 4, 0))


def _tcp_wire(**fields) -> bytes:
    """A segment's flat wire bytes (header and payload)."""
    segment = Segment(**{"sport": 1, "dport": 2, "seq": 0, "ack": 0,
                         "flags": 0, "window": 0, **fields})
    return as_wire_bytes(encode_segment(segment, IP_A, IP_B))


def _tcp_parse(data) -> Segment:
    return decode_segment(bytes(data), IP_A, IP_B, verify=False)


def test_tcp_round_trip_no_options():
    segment = Segment(
        sport=1234,
        dport=80,
        seq=0xDEADBEEF,
        ack=0x12345678,
        flags=TCP_ACK,
        window=8192,
    )
    data = as_wire_bytes(encode_segment(segment, IP_A, IP_B))
    assert len(data) == HEADER_LENGTH
    assert _tcp_parse(data) == segment


def test_tcp_round_trip_with_mss_option():
    data = _tcp_wire(seq=100, flags=TCP_SYN, window=4096, mss=1460)
    assert len(data) == HEADER_LENGTH + 4
    parsed = _tcp_parse(data)
    assert parsed.mss == 1460
    assert parsed.syn


def test_tcp_flags_properties():
    parsed = _tcp_parse(_tcp_wire(flags=TCP_SYN | TCP_ACK))
    assert parsed.syn and parsed.has_ack
    assert not parsed.fin and not parsed.rst


def test_tcp_bad_offset_rejected():
    data = bytearray(_tcp_wire())
    data[12] = 0x30  # Offset 3 words < minimum 5.
    with pytest.raises(HeaderError):
        _tcp_parse(data)


def test_tcp_truncated_option_rejected():
    # A 6-word header whose option claims 5 bytes but only 4 exist.
    data = bytearray(_tcp_wire() + b"\x03\x05\x01\x00")
    data[12] = 6 << 4
    with pytest.raises(HeaderError):
        _tcp_parse(data)


def test_tcp_bad_mss_length_rejected():
    # MSS option with a wrong length byte.
    data = bytearray(_tcp_wire() + b"\x02\x03\x05\x00")
    data[12] = 6 << 4
    with pytest.raises(HeaderError):
        _tcp_parse(data)


def test_tcp_nop_padding_parsed():
    options = b"\x01\x01\x02\x04\x05\xb4\x00\x00"  # NOP NOP MSS(1460) END.
    data = bytearray(_tcp_wire() + options)
    data[12] = (7 << 4)  # 28-byte header.
    parsed = _tcp_parse(data)
    assert parsed.mss == 1460
    assert len(parsed.payload) == 0


@pytest.mark.parametrize(
    "fields",
    [{"seq": 1 << 32}, {"ack": -1}, {"mss": 0}, {"mss": 0x10000}],
    ids=["seq", "ack", "mss-zero", "mss-wide"],
)
def test_tcp_out_of_range_field_rejected(fields):
    """A sequence number nobody masked is refused, not truncated."""
    with pytest.raises(HeaderError):
        _tcp_wire(**fields)


def test_icmp_round_trip():
    header = IcmpHeader(icmp_type=8, code=0, ident=77, seq=3)
    parsed = IcmpHeader.unpack(header.pack())
    assert parsed.icmp_type == 8
    assert parsed.ident == 77
    assert parsed.seq == 3


# ----------------------------------------------------------------------
# Census
# ----------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_header_is_a_record_checked_where_packed():
    """``net/headers.py`` holds records, not dataclasses re-checking
    ranges on every construction and every decode, and one function,
    ``pack_ipv4``, packs every IPv4 header: only ``protocols/ip.py``
    (its ``encapsulate`` and ``IpStack.send``) and ``Ipv4Header.pack``
    call it, and nothing under ``src/`` builds an ``Ipv4Header`` to
    pack."""
    tree = ast.parse((SRC / "net" / "headers.py").read_text())
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    decorated = {
        cls.name for cls in classes for decorator in cls.decorator_list
        if "dataclass" in ast.unparse(decorator)
    }
    post_inits = {
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
    }
    calls = [
        (path.relative_to(SRC).as_posix(), ast.unparse(node.func))
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]
    builders = {path for path, func in calls if func == "Ipv4Header"}
    packers = {path for path, func in calls if func == "pack_ipv4"}
    assert (decorated, post_inits, builders) == (set(), set(), set())
    assert packers == {"protocols/ip.py", "net/headers.py"}


#: Every record the data path builds for a packet.
PER_PACKET_RECORDS = (
    EthernetHeader, An1Header, ArpPacket, Ipv4Header, UdpHeader, IcmpHeader,
    Segment, SegmentArrives, AppSend, AppRead, AppClose, AppAbort, TimerExpires,
    EmitSegment, DeliverData, DeliverFin, SetTimer, CancelTimer, NotifyConnected,
    NotifyClosed, SendSpaceAvailable, IpDatagram, LinkInfo, FlowKey, DemuxDecision,
)


@pytest.mark.parametrize("cls", PER_PACKET_RECORDS, ids=lambda cls: cls.__name__)
def test_every_per_packet_record_is_a_tuple_built_in_c(cls):
    """No per-packet record is a dataclass, whose build runs an
    ``__init__`` frame and sets each field through ``object.__setattr__``:
    each is a ``NamedTuple``, and ``cls.build`` makes it from one tuple
    of its fields with no profiled call: as many as a lambda returning
    the tuple itself."""
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    fields = tuple(range(len(cls._fields)))
    built = cls.build(fields)
    assert type(built) is cls and built == cls(*fields)

    def calls(work):
        profiler = cProfile.Profile()
        profiler.runcall(work)
        return sum(entry.callcount for entry in profiler.getstats())

    assert calls(lambda: cls.build(fields)) == calls(lambda: fields)


def test_machine_events_and_actions_equal_only_their_own_class():
    """Tuples compare by contents; the TCP machine's events and actions
    also compare by class, and keep the tuple's hash."""
    assert CancelTimer("rexmt") != NotifyClosed("rexmt")
    assert not CancelTimer("rexmt") == NotifyClosed("rexmt")
    assert AppSend(b"x") != DeliverData(b"x") and AppRead(5) != SendSpaceAvailable(5)
    assert TimerExpires("delack") != CancelTimer("delack")
    assert NotifyConnected() != DeliverFin() and AppClose() != AppAbort()
    assert len({NOTIFY_CONNECTED, DELIVER_FIN, APP_CLOSE, APP_ABORT}) == 4
    assert (DELIVER_FIN, NOTIFY_CONNECTED, APP_CLOSE, APP_ABORT) == (
        DeliverFin(), NotifyConnected(), AppClose(), AppAbort()
    )
    timer = SetTimer("rexmt", 1.5)
    assert timer == SetTimer.build(("rexmt", 1.5)) and not timer != SetTimer("rexmt", 1.5)
    assert hash(timer) == hash(("rexmt", 1.5))
    segment = Segment(5000, 80, 1, 2, TCP_ACK, 8192)
    assert SegmentArrives(segment) == SegmentArrives.build((segment,))
    assert EmitSegment(segment) == EmitSegment.build((segment, False))
