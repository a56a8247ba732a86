"""Deterministic stand-in for a wall-clock gate on the byte path.

The way ``test_fat_tree_events_per_datagram_gate`` pins engine events
per datagram, these pin *profiled calls* (cProfile's count, Python and
C alike — the ledger's ``py_calls_per_op`` currency) for the byte work
of one packet with no simulator around it, so a regression in
``net/checksum.py``, ``net/buf.py``, ``net/headers.py`` or the per-hop
rewrite fails tier-1 instead of waiting for a ledger run.
"""

import cProfile

from repro.net.buf import as_wire_bytes, slice_view
from repro.net.fabric import chain
from repro.net.headers import (
    EthernetHeader,
    Ipv4Header,
    PROTO_UDP,
    TCP_ACK,
)
from repro.protocols.ip import forwarded_copy
from repro.protocols.tcp.wire import Segment, TcpSegmentEncoder, decode_segment
from repro.protocols.udp import encode_datagram
from repro.sim import Simulator

IP_A = 0x0A000001
IP_B = 0x0A000102


def profiled_calls(work) -> int:
    """Every call cProfile sees under ``work()``, itself included."""
    profiler = cProfile.Profile()
    profiler.runcall(work)
    return sum(entry.callcount for entry in profiler.getstats())


def test_router_hop_byte_work_call_gate():
    """One router hop's byte work on a 64-byte UDP datagram — strip the
    link header, unpack and verify the IP header, decrement the TTL,
    put the next hop's link header on, fuse for the wire — costs 31
    profiled calls.  It cost 100 (and this gate failed by 66) before the
    big-integer checksum kernel, the closed-form TTL patch, chain
    construction without re-walking and the per-neighbour packed link
    header.
    """
    netio = chain(Simulator(), n_routers=1).routers[0].interfaces[1].netio
    next_hop = b"\x02\x00\x00\x00\x00\x09"
    packet = as_wire_bytes(
        Ipv4Header(
            src=IP_A, dst=IP_B, protocol=PROTO_UDP, total_length=20 + 8 + 64
        ).pack()
        + encode_datagram(4000, 9000, bytes(64), IP_A, IP_B)
    )
    frame = EthernetHeader(netio.nic.mac, next_hop, 0x0800).pack() + packet

    def hop():
        payload = slice_view(frame, EthernetHeader.LENGTH)
        header = Ipv4Header.unpack(payload, verify=True)
        rewritten = forwarded_copy(header, payload)
        return as_wire_bytes(netio._encapsulate(rewritten, next_hop, 0))

    out = hop()  # The steady state: this neighbour's link header is known.
    assert out[EthernetHeader.LENGTH + 8] == 63  # TTL 64, one hop on.
    assert Ipv4Header.unpack(out[EthernetHeader.LENGTH:], verify=True).ttl == 63
    assert out[EthernetHeader.LENGTH + 20:] == packet[20:]
    assert profiled_calls(hop) <= 34


def test_tcp_segment_byte_work_call_gate():
    """One 1460-byte data segment through ``TcpSegmentEncoder.encode``
    and, as flat wire bytes, ``decode_segment(verify=True)`` costs 60
    profiled calls; it cost 126 (and this gate failed by 63) when each
    checksum part went through the ``array`` word sum and a leaf
    generator and every chain was walked twice to build it.
    """
    encoder = TcpSegmentEncoder(sport=5000, dport=80, src_ip=IP_A, dst_ip=IP_B)
    payload = (bytes(range(256)) * 6)[:1460]
    seq = iter(range(1, 1 << 30, 1460))

    def segment_round_trip():
        segment = Segment(
            sport=5000, dport=80, seq=next(seq), ack=7,
            flags=TCP_ACK, window=8192, payload=payload,
        )
        wire = as_wire_bytes(encoder.encode(segment))
        return decode_segment(wire, IP_A, IP_B, verify=True)

    assert bytes(segment_round_trip().payload) == payload
    assert profiled_calls(segment_round_trip) <= 63
    assert encoder.stats["full_encodes"] == 2  # Fresh data, not a cache hit.
