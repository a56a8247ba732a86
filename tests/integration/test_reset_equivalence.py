"""RFC 793 p.36, "reset for a segment no connection claims", is written
once (``protocols.tcp.reset_for``): the in-kernel stack and the
registry must answer the same stray segment with the same bytes."""

import pytest

from repro.net.headers import PROTO_TCP, TCP_ACK, TCP_PSH, TCP_RST, TCP_SYN
from repro.protocols.tcp import Segment, encode_segment
from repro.testbed import IP_A, IP_B, Testbed
from repro.trace import WireTrace

#: Stray segments for a port nobody listens on, with the reset each
#: must draw as (seq, ack, flags); None where the rule says stay silent.
STRAYS = {
    "ack-bearing": (
        Segment(4000, 81, seq=1000, ack=77777, flags=TCP_ACK, window=512),
        (77777, 0, TCP_RST),
    ),
    # seq + 1 wraps: the reset acknowledges sequence number 0.
    "syn": (
        Segment(4000, 81, seq=0xFFFFFFFF, ack=0, flags=TCP_SYN, window=512, mss=1460),
        (0, 0, TCP_RST | TCP_ACK),
    ),
    "ackless-data": (
        Segment(4000, 81, seq=5000, ack=0, flags=TCP_PSH, window=512, payload=b"stray"),
        (0, 5005, TCP_RST | TCP_ACK),
    ),
    "rst": (Segment(4000, 81, seq=1000, ack=0, flags=TCP_RST, window=0), None),
}


def _answers(organization: str, segment: Segment) -> list:
    """Every TCP frame bob puts on the wire after alice sends
    ``segment`` at him."""
    bed = Testbed(organization=organization)
    trace = WireTrace(bed.link)
    wire = encode_segment(segment, IP_A, IP_B)
    bed.spawn(bed.host_a.ip_send(IP_B, PROTO_TCP, wire))
    bed.run(until=1.0)
    return [
        record
        for record in trace.records
        if record.protocol == "tcp" and record.layers[1].src == IP_B
    ]


@pytest.mark.parametrize("stray", STRAYS)
def test_monolithic_and_registry_reset_identically(stray):
    segment, expected = STRAYS[stray]
    monolithic = _answers("ultrix", segment)
    userlib = _answers("userlib", segment)
    assert [r.raw for r in monolithic] == [r.raw for r in userlib]
    if expected is None:
        assert monolithic == []
        return
    (answer,) = monolithic
    tcp = answer.layers[-1]
    assert (tcp.sport, tcp.dport, tcp.window) == (81, 4000, 0)
    assert (tcp.seq, tcp.ack, tcp.flags) == expected
