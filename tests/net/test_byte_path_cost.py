"""Deterministic stand-in for a wall-clock gate on the byte path.

The way ``test_fat_tree_events_per_datagram_gate`` pins engine events
per datagram, these pin *profiled calls* (cProfile's count, Python and
C alike — the ledger's ``py_calls_per_op`` currency) for the byte work
of one packet with no simulator around it, so a regression in
``net/checksum.py``, ``net/buf.py``, ``net/headers.py``, the TCP codec
in ``protocols/tcp/wire.py`` or the per-hop rewrite fails tier-1
instead of waiting for a ledger run — and so does a second decode of
one AN1 link header on its way to the kernel.
"""

import cProfile

import pytest

from repro.costs import FREE
from repro.mach import Kernel
from repro.net.buf import as_wire_bytes, slice_view
from repro.net.fabric import chain
from repro.net.headers import (
    ETHERTYPE_IP,
    An1Header,
    EthernetHeader,
    Ipv4Header,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_SYN,
)
from repro.net.link import An1Link
from repro.net.nic.an1ctrl import An1Nic
from repro.netio.module import LinkInfo, NetworkIoModule
from repro.netio.template import tcp_send_template
from repro.protocols.ip import IpStack, encapsulate, forwarded_header
from repro.protocols.tcp.wire import Segment, decode_segment, encode_header, encode_segment
from repro.protocols.udp import decode_datagram, encode_datagram
from repro.sim import Simulator

from .test_data_path_cost import profiled_calls

IP_A = 0x0A000001
IP_B = 0x0A000102


@pytest.mark.parametrize(
    "case, ceiling", [("hop", 21), ("send", 27), ("receive", 21)],
    ids=["hop", "send", "receive"],
)
def test_router_hop_byte_work_call_gate(case, ceiling):
    """The byte work on a 64-byte UDP datagram at each end of a path and
    at one router hop, in profiled calls.

    ``hop`` — strip the link header, unpack and verify the IP header,
    patch the TTL, put the next hop's link header and the patched IP
    header on in one chain (``kernel_send(head=, then=)``, the callback
    transmit a router runs), fuse for the wire — costs 20, the stand-in
    transmit's frame and its ``then`` included.  ``send`` —
    ``encode_datagram``, ``IpStack.send``, the link header, the fuse —
    costs 26.  ``receive`` — ``IpStack.receive`` and
    ``decode_datagram`` — costs 20.

    History: ``hop`` 18 under a ceiling of 19 while the gate timed the
    thread transmit, ``driver_transmit``, stubbed by the fusion alone
    (a router forwards through the callback transmit, which that left
    untimed); ``hop`` 19 and ``receive`` 23 while every decode built its
    record through ``tuple.__new__`` and the datagram was a frozen
    dataclass; ``send`` 47 and ``receive`` 29 while the IPv4 header went
    through a record, a field list, ``internet_checksum`` and two packs
    and the UDP checksum through ``pseudo_header`` and
    ``checksum_parts``, and ``hop`` 20 while ``prepend`` made its chain
    with ``object.__new__``; ``hop`` cost 100 before the big-integer checksum kernel,
    the closed-form TTL patch, chain construction without re-walking
    and the per-neighbour packed link header, then 31 while the header
    checksum went through ``internet_checksum`` and ``_unswap`` and each
    ``prepend`` walked its parts; 24, 46 and 32 while every header was a
    frozen dataclass whose decode ran ``__init__`` and ``__post_init__``
    range checks (``send`` gained one ``encapsulate`` frame when the
    five hand-built IPv4 headers became one function); ``hop`` 23 while
    the TTL rewrite built a chain of its own for the link header to go
    around.
    """
    netio = chain(Simulator(), n_routers=1).routers[0].interfaces[1].netio
    # The PMADD fuses a frame at its PIO copy; standing in for the
    # driver, the fusion alone hands ``kernel_send``'s frame back flat,
    # from a thread, or to ``then`` from the callback transmit.
    netio.nic.driver_transmit = as_wire_bytes
    netio.nic.transmit = lambda frame, then: then(as_wire_bytes(frame))
    fused = []
    next_hop = b"\x02\x00\x00\x00\x00\x09"
    body = bytes(64)
    sender, receiver = IpStack(IP_A), IpStack(IP_B)
    packet = as_wire_bytes(
        sender.send(IP_B, PROTO_UDP, encode_datagram(4000, 9000, body, IP_A, IP_B))[0]
    )
    frame = EthernetHeader(netio.nic.mac, next_hop, 0x0800).pack() + packet

    def hop():
        payload = slice_view(frame, EthernetHeader.LENGTH)
        header = Ipv4Header.unpack(payload, verify=True)
        head = forwarded_header(header, payload)
        rest = slice_view(payload, Ipv4Header.LENGTH)
        netio.kernel_send(rest, next_hop, head=head, then=fused.append)
        return fused[-1]

    def send():
        datagram = encode_datagram(4000, 9000, body, IP_A, IP_B)
        (out,) = sender.send(IP_B, PROTO_UDP, datagram)
        return netio.kernel_send(out, next_hop)

    def receive():
        datagram = receiver.receive(slice_view(frame, EthernetHeader.LENGTH))
        return decode_datagram(datagram.payload, datagram.src, datagram.dst)

    work = {"hop": hop, "send": send, "receive": receive}[case]
    out = work()  # The steady state: this neighbour's link header is known.
    if case == "hop":
        assert out[EthernetHeader.LENGTH + 8] == 63  # TTL 64, one hop on.
        assert Ipv4Header.unpack(out[EthernetHeader.LENGTH:], verify=True).ttl == 63
        assert out[EthernetHeader.LENGTH + 20:] == packet[20:]
    elif case == "send":
        assert Ipv4Header.unpack(out[EthernetHeader.LENGTH:]).total_length == len(packet)
        assert out[EthernetHeader.LENGTH + 20:] == packet[20:]
    else:
        assert bytes(out.payload) == body
    assert profiled_calls(work) <= ceiling


def test_an1_frame_decodes_its_link_header_once():
    """One AN1 frame from the sending driver to the receiving kernel:
    ``An1Nic.accepts`` filters on the destination station and
    ``An1Nic.wire_deliver`` demuxes on the BQI, each read straight out
    of the octets, so the network I/O module's ``_rx_ring`` is the one
    ``An1Header`` decode on the path.  It was three, one per stage."""
    sim = Simulator()
    link = An1Link(sim)
    sender = An1Nic(Kernel(sim, FREE, name="a"), link, station=1)
    receiver = An1Nic(Kernel(sim, FREE, name="b"), link, station=2)
    netio = NetworkIoModule(receiver.kernel, receiver)
    arrived = []

    def kernel_rx(ethertype, payload, link_info, done):
        arrived.append((ethertype, bytes(payload), link_info))
        done()

    netio.kernel_rx = kernel_rx
    frame = An1Header(2, 1, ETHERTYPE_IP, bqi=0, adv_bqi=7).pack() + bytes(64)
    sim.process(sender.driver_transmit(frame))
    profiler = cProfile.Profile()
    profiler.runcall(sim.run)
    decodes = sum(
        entry.callcount
        for entry in profiler.getstats()
        if entry.code is An1Header.unpack.__code__
    )
    assert arrived == [(ETHERTYPE_IP, bytes(64), LinkInfo(1, 0, 7))]
    assert decodes == 1


@pytest.mark.parametrize(
    "flags, payload, mss, advance, ceiling",
    [
        (TCP_ACK, (bytes(range(256)) * 6)[:1460], None, "seq", 22),
        (TCP_SYN, b"", 1460, "seq", 27),
        (TCP_ACK, b"", None, "ack", 22),
    ],
    ids=["data", "syn-mss", "ack"],
)
def test_tcp_segment_byte_work_call_gate(flags, payload, mss, advance, ceiling):
    """One segment built as the TCP machine builds it, through
    ``encode_segment`` and, as flat wire bytes,
    ``decode_segment(verify=True)``: a 1460-byte data segment costs 21
    profiled calls, a SYN carrying the MSS option 26, and a pure ACK —
    ``seq`` fixed, ``ack`` advancing — 21.

    History: 23, 28 and 23 while ``Segment`` was a frozen dataclass,
    one ``__init__`` frame at each build and each decode; 41, 47 and 41 (under ceilings of 45, 50 and 44) while the
    checksum went through ``pseudo_header`` and ``checksum_parts`` and
    was spliced into a second image of the header; the data segment cost 126 (and this gate failed by 63)
    when each checksum part went through the ``array`` word sum and a
    leaf generator and every chain was walked twice to build it; then
    60 (SYN 61) while every full encode and every decode built a frozen
    ``TcpHeader`` — range checks in ``__post_init__``, one
    ``object.__setattr__`` per field, an option walk on every segment —
    only to copy it field by field into or out of the ``Segment``; then
    48, 51 and 48 through the per-connection header-image cache, which
    looked every segment up and patched a pure ACK's ack and window
    with RFC 1624 updates at more calls than packing it afresh.
    """
    step = iter(range(1, 1 << 30, 1460))

    def segment_round_trip():
        numbers = {"seq": 1, "ack": 7}
        numbers[advance] = next(step)
        segment = Segment.build(
            (5000, 80, numbers["seq"], numbers["ack"], flags, 8192, payload, mss)
        )
        wire = as_wire_bytes(encode_segment(segment, IP_A, IP_B))
        return decode_segment(wire, IP_A, IP_B, verify=True)

    decoded = segment_round_trip()
    assert bytes(decoded.payload) == payload and decoded.mss == mss
    assert profiled_calls(segment_round_trip) <= ceiling


def test_library_segment_send_call_gate():
    """One library data segment from its ``Segment`` to the fused
    frame, in profiled calls: ``encode_header``, ``IpStack.send``
    putting the IPv4 and TCP headers in front of the payload as one
    image, the send template's check reading its prefix in place from
    that image, the link header and the fuse — 26, this driver's frame
    and the profiler's exit included.  The frame is the one the
    three-chain path built (``encode_segment``, then ``encapsulate``,
    then the link header), byte for byte.
    """
    netio = chain(Simulator(), n_routers=1).routers[0].interfaces[1].netio
    netio.nic.driver_transmit = as_wire_bytes
    next_hop = b"\x02\x00\x00\x00\x00\x09"
    template = tcp_send_template(IP_A, 5000, IP_B, 80)
    ip = IpStack(IP_A)
    segment = Segment(5000, 80, 1, 7, TCP_ACK, 8192, (bytes(range(256)) * 6)[:1460])

    def send():
        head, _ = encode_header(segment, IP_A, IP_B)
        (packet,) = ip.send(IP_B, PROTO_TCP, segment.payload, 1500, 64, head)
        template.verify(packet)
        return netio.kernel_send(packet, next_hop)

    out = send()  # The steady state: this neighbour's link header is known.
    legacy = encapsulate(IP_A, IP_B, PROTO_TCP, encode_segment(segment, IP_A, IP_B), ident=1)
    assert out[EthernetHeader.LENGTH:] == as_wire_bytes(legacy)
    assert profiled_calls(send) <= 27
