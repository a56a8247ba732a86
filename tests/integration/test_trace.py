"""Tests for the wire tracer."""

import pytest

from repro.trace import WireTrace
from repro.testbed import IP_B, Testbed


def records(trace, protocol):
    """The captured records of one protocol ('tcp', 'arp', ...)."""
    return [r for r in trace.records if r.protocol == protocol]


def run_small_transfer(testbed):
    def server():
        listener = yield from testbed.service_b.listen(9100)
        conn = yield from listener.accept()
        data = yield from conn.recv_exactly(100)
        yield from conn.send(data)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 9100)
        yield from conn.send(b"t" * 100)
        yield from conn.recv_exactly(100)

    testbed.spawn(server(), name="server")
    proc = testbed.spawn(client(), name="client")
    testbed.run(until=proc)


def test_trace_captures_handshake_and_data():
    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link)
    run_small_transfer(testbed)
    tcp = records(trace, "tcp")
    assert len(tcp) >= 5  # SYN, SYN|ACK, ACK, data, ack, data...
    # The first TCP record is the SYN with an MSS option.
    assert "[S]" in tcp[0].summary
    assert "mss=1460" in tcp[0].summary
    assert any("len=100" in r.summary for r in tcp)
    # ARP resolution happened on Ethernet.
    assert len(records(trace, "arp")) >= 2


def test_trace_decodes_an1_bqi_fields():
    testbed = Testbed(network="an1", organization="userlib")
    trace = WireTrace(testbed.link)
    run_small_transfer(testbed)
    tcp = records(trace, "tcp")
    # Handshake SYN advertises a ring in the AN1 spare field.
    assert any("adv" in r.summary for r in tcp)
    # Data segments are stamped with the discovered (non-zero) BQI.
    data_records = [r for r in tcp if "len=100" in r.summary]
    assert data_records
    assert all("[bqi 0" not in r.summary for r in data_records)


def test_trace_printer_and_detach():
    testbed = Testbed(network="ethernet", organization="userlib")
    lines = []
    trace = WireTrace(testbed.link, printer=lines.append)
    run_small_transfer(testbed)
    assert lines
    assert all("ms" in line for line in lines)
    captured = len(trace.records)
    trace.detach()
    run_small_transfer_again = run_small_transfer  # Same helper, new run.
    # After detaching nothing more is captured.
    testbed2_proc_count = len(trace.records)
    assert testbed2_proc_count == captured


def test_two_traces_detach_in_attach_order():
    """Detaching the first of two traces used to restore the bare
    transmit and silently un-trace the second."""
    testbed = Testbed(network="ethernet", organization="userlib")
    first = WireTrace(testbed.link)
    second = WireTrace(testbed.link)

    def ping(port):
        def server():
            listener = yield from testbed.service_b.listen(port)
            conn = yield from listener.accept()
            yield from conn.send((yield from conn.recv_exactly(10)))

        def client():
            conn = yield from testbed.service_a.connect(IP_B, port)
            yield from conn.send(b"p" * 10)
            yield from conn.recv_exactly(10)

        testbed.spawn(server(), name="server")
        testbed.run(until=testbed.spawn(client(), name="client"))

    ping(9101)
    assert first.records
    # Both traces saw the same frames at the same instants.
    assert [(r.time, r.raw) for r in first.records] == [
        (r.time, r.raw) for r in second.records
    ]
    seen = len(first.records)
    first.detach()
    first.detach()  # Harmless.
    ping(9102)
    assert len(first.records) == seen
    assert len(second.records) > seen
    second.detach()
    assert testbed.link.watchers == []


def test_trace_decodes_udp_and_fragments():
    from repro.net.headers import PROTO_UDP
    from repro.protocols.udp import encode_datagram
    from repro.testbed import IP_A

    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link)

    def sender():
        # A datagram big enough to fragment at the 1500-byte MTU.
        wire = encode_datagram(1111, 2222, b"u" * 3000, IP_A, IP_B)
        yield from testbed.host_a.ip_send(IP_B, PROTO_UDP, wire)
        small = encode_datagram(1111, 2222, b"tiny", IP_A, IP_B)
        yield from testbed.host_a.ip_send(IP_B, PROTO_UDP, small)

    proc = testbed.spawn(sender(), name="udp")
    testbed.run(until=proc)
    testbed.run(until=testbed.sim.now + 0.1)
    frags = records(trace, "ip-frag")
    assert len(frags) >= 2  # Last fragment decodes as ip-frag too.
    assert any("MF" in r.summary for r in frags)
    (udp,) = records(trace, "udp")
    assert "1111 > " in udp.summary and "len=4" in udp.summary


def test_trace_decodes_icmp_echo():
    from repro.net.headers import PROTO_ICMP
    from repro.protocols.icmp import encode_echo

    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link)

    def pinger():
        yield from testbed.host_a.ip_send(
            IP_B, PROTO_ICMP, encode_echo(True, 9, 1, b"hi")
        )
        yield testbed.sim.timeout(0.2)

    proc = testbed.spawn(pinger(), name="ping")
    testbed.run(until=proc)
    icmp = records(trace, "icmp")
    assert any("echo-request" in r.summary for r in icmp)
    assert any("echo-reply" in r.summary for r in icmp)


def test_trace_decode_never_raises_on_corrupted_frames():
    """decode() must survive arbitrary damage: every truncation and a
    sweep of single-byte mutations of real frames decode to *some*
    record, with garbage tagged ``malformed`` rather than raised."""
    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link)
    run_small_transfer(testbed)
    frames = [event.frame for event in trace.fault_events]
    assert frames

    sample = frames[0]
    saw_malformed = False
    for cut in range(len(sample)):
        record = trace.decode(0.0, sample[:cut])
        assert record.protocol  # Decoded or tagged, never raised.
        saw_malformed = saw_malformed or record.protocol == "malformed"
    assert saw_malformed  # Link-header truncation must hit the tag.
    for offset in range(len(sample)):
        mutated = bytearray(sample)
        mutated[offset] ^= 0xFF
        record = trace.decode(0.0, bytes(mutated))
        assert record.protocol  # Bit flips decode or tag, never raise.


def test_trace_tags_short_frame_as_malformed():
    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link, capture=False)
    record = trace.decode(1.5, b"\x00\x01\x02")
    assert record.protocol == "malformed"
    assert "malformed" in record.summary
    assert record.length == 3


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_tracing_an_inert_link_moves_nothing(network):
    """A watcher takes an inert link off its quiet path (no fault plan
    is drawn there), yet the planned path must give the same
    deliveries and the same engine events: tracing changes nothing it
    observes."""

    def run(traced):
        testbed = Testbed(network=network, organization="userlib")
        assert testbed.link.faults.inert
        trace = WireTrace(testbed.link) if traced else None
        received = []

        def server():
            listener = yield from testbed.service_b.listen(9100)
            conn = yield from listener.accept()
            received.append((yield from conn.recv_exactly(3000)))
            yield from conn.close()

        def client():
            conn = yield from testbed.service_a.connect(IP_B, 9100)
            yield from conn.send(bytes(range(256)) * 11 + b"x" * 184)
            yield from conn.close()

        testbed.spawn(client(), name="client")
        testbed.run(until=testbed.spawn(server(), name="server"))
        if traced:
            assert trace.records and trace.fault_events
        nics = [dict(host.nic.stats) for host in testbed.hosts]
        return testbed.sim.now, testbed.sim.engine_stats(), nics, received

    assert run(traced=True) == run(traced=False)
