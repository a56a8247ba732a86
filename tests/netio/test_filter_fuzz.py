"""Fuzz properties for packet filters and templates.

Demux code runs in the kernel on attacker-controlled bytes: it must
never raise, and the interpreted and synthesized forms must agree on
every input.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs import FREE
from repro.net.headers import PROTO_TCP, PROTO_UDP, str_to_ip
from repro.netio import (
    FlowKey,
    FlowTable,
    ScanTable,
    tcp_filter_program,
    tcp_send_template,
    udp_send_template,
)
from repro.netio.pktfilter import udp_filter_program

from .compiled_demux import compile_tcp_demux, compile_udp_demux

IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")

random_bytes = st.binary(max_size=128)

# A well-formed Ethernet+IP+TCP frame for the (IP_A:5000 -> IP_B:80)
# flow; mutating single bytes of it explores the near-miss space that
# purely random bytes almost never reach.
_BASE_FRAME = bytes.fromhex(
    "020000000002" "020000000001" "0800"          # Ethernet
) + bytes([0x45, 0, 0, 40, 0, 0, 0, 0, 64, PROTO_TCP, 0, 0]) + (
    IP_A.to_bytes(4, "big") + IP_B.to_bytes(4, "big")
) + (5000).to_bytes(2, "big") + (80).to_bytes(2, "big") + bytes(16)


@st.composite
def _mutated_frames(draw):
    frame = bytearray(_BASE_FRAME)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(
            st.integers(0, 255)
        )
    cut = draw(st.integers(min_value=0, max_value=len(frame)))
    return bytes(frame[:cut])


# Random garbage plus near-valid mutants — including truncated frames.
fuzz_frames = st.one_of(random_bytes, _mutated_frames())


@settings(max_examples=300, deadline=None)
@given(data=random_bytes)
def test_tcp_filters_never_crash_and_agree(data):
    interpreted = tcp_filter_program(IP_B, 80, IP_A, 5000)
    compiled = compile_tcp_demux(IP_B, 80, IP_A, 5000)
    assert interpreted.run(data) == compiled.run(data)


@settings(max_examples=300, deadline=None)
@given(data=random_bytes)
def test_udp_filters_never_crash_and_agree(data):
    interpreted = udp_filter_program(IP_B, 53)
    compiled = compile_udp_demux(IP_B, 53)
    assert interpreted.run(data) == compiled.run(data)


@settings(max_examples=300, deadline=None)
@given(data=random_bytes)
def test_templates_never_crash(data):
    tcp_template = tcp_send_template(IP_A, 5000, IP_B, 80)
    udp_template = udp_send_template(IP_A, 5000)
    # Arbitrary bytes either match or don't; never raise.
    tcp_template.matches(data)
    udp_template.matches(data)


@settings(max_examples=300, deadline=None)
@given(data=fuzz_frames)
def test_tcp_classifiers_agree_three_ways(data):
    """FilterProgram, the CompiledDemux oracle and the FlowTable exact
    tier are three implementations of the same predicate; on every
    frame — valid, mutated, or truncated — they must classify
    identically, and a ScanTable must deliver what its program accepts."""
    interpreted = tcp_filter_program(IP_B, 80, IP_A, 5000)
    compiled = compile_tcp_demux(IP_B, 80, IP_A, 5000)
    key = FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000)
    table, scan = FlowTable(), ScanTable("cspf")
    chan = object()
    table.install(key, chan)
    scan.install(key, chan)
    scan.add_filter(key, interpreted, chan)
    hit = table.classify(data, FREE).channel is chan
    assert interpreted.run(data) == compiled.run(data) == hit
    assert (scan.classify(data, FREE).channel is chan) == hit


@settings(max_examples=300, deadline=None)
@given(data=fuzz_frames)
def test_udp_classifiers_agree_three_ways(data):
    """Same three-way agreement for the UDP wildcard (listen) tier."""
    interpreted = udp_filter_program(IP_B, 53)
    compiled = compile_udp_demux(IP_B, 53)
    key = FlowKey(PROTO_UDP, IP_B, 53)
    table, scan = FlowTable(), ScanTable("bpf")
    chan = object()
    table.install(key, chan)
    scan.install(key, chan)
    scan.add_filter(key, interpreted, chan)
    hit = table.classify(data, FREE).channel is chan
    assert interpreted.run(data) == compiled.run(data) == hit
    assert (scan.classify(data, FREE).channel is chan) == hit


@settings(max_examples=200, deadline=None)
@given(
    data=random_bytes,
    ports=st.tuples(
        st.integers(min_value=1, max_value=0xFFFF),
        st.integers(min_value=1, max_value=0xFFFF),
    ),
)
def test_filters_for_different_connections_are_disjoint(data, ports):
    """No input may match two different connections' filters — the
    security property demux correctness rests on."""
    p1, p2 = ports
    if p1 == p2:
        return
    f1 = compile_tcp_demux(IP_B, p1, IP_A, 5000)
    f2 = compile_tcp_demux(IP_B, p2, IP_A, 5000)
    assert not (f1.run(data) and f2.run(data))
