"""Span recorder tests: trace-id plumbing and packet lifecycles under
drop / retransmit / duplicate fault injection."""

from repro import obs
from repro.net.buf import as_wire_bytes, prepend
from repro.net.faults import FaultInjector
from repro.obs.spans import SpanRecorder
from repro.testbed import IP_B, FabricTestbed, Testbed


def transfer(testbed, nbytes=4000, port=9200):
    def server():
        listener = yield from testbed.service_b.listen(port)
        conn = yield from listener.accept()
        yield from conn.recv_exactly(nbytes)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, port)
        yield from conn.send(b"x" * nbytes)
        yield from conn.close()

    # Wait on the *server*: the client's send() returns once the data is
    # buffered, long before the last segment crosses the wire.
    proc = testbed.spawn(server(), name="server")
    testbed.spawn(client(), name="client")
    testbed.run(until=proc)


# -- unit-level ------------------------------------------------------


def test_mint_record_timeline_order():
    rec = SpanRecorder()
    tid = rec.mint(1.0, "seq=1")
    rec.record(tid, "tcp.output", 1.0, "app-a")
    rec.record(tid, "netio.deliver", 1.5, "netio-b", cost=1e-6)
    other = rec.mint(1.2)
    rec.record(other, "tcp.output", 1.2, "app-b")
    events = rec.timeline(tid)
    assert [e.stage for e in events] == ["tcp.output", "netio.deliver"]
    assert rec.birth(tid) == (1.0, "seq=1")
    text = rec.render_timeline(tid)
    assert "tcp.output" in text and "@netio-b" in text


def test_trace_of_resolves_every_carrier_shape():
    rec = SpanRecorder()
    tid = rec.mint(0.0)
    buf = prepend(b"hdr", b"payload")
    buf.trace_id = tid
    assert rec.trace_of(buf) == tid
    # Encapsulation: prepend() wraps the traced buffer, id inherited.
    outer = prepend(b"link", buf)
    assert rec.trace_of(outer) == tid
    # Fused wire bytes resolve through the identity map...
    wire = as_wire_bytes(outer)
    rec.bind_wire(wire, tid)
    assert rec.trace_of(wire) == tid
    # ...and a memoryview of the wire resolves through its exporter.
    assert rec.trace_of(memoryview(wire)) == tid
    assert rec.trace_of(b"untraced") is None


def test_event_ring_is_bounded():
    rec = SpanRecorder(capacity=64)
    first = rec.mint(0.0)
    rec.record(first, "tcp.output", 0.0, "a")
    for i in range(200):
        tid = rec.mint(float(i))
        rec.record(tid, "tcp.output", float(i), "a")
    assert len(rec.events) == 64
    assert rec.timeline(first) == []  # evicted
    assert rec.recorded == 201
    assert "no events" in rec.render_timeline(first)


def test_wire_map_is_bounded():
    rec = SpanRecorder(capacity=64, wire_capacity=8)
    frames = [bytes([i]) * 8 for i in range(20)]  # keep objects alive
    for i, frame in enumerate(frames):
        rec.bind_wire(frame, i + 1)
    assert len(rec._wire) == 8
    assert rec.trace_of(frames[0]) is None
    assert rec.trace_of(frames[-1]) == 20


# -- lifecycle under faults ------------------------------------------


def test_clean_transfer_spans_cover_every_hop():
    session = obs.enable()
    testbed = Testbed(network="ethernet", organization="userlib")
    transfer(testbed)
    rec = session.spans
    data_traces = [
        t for t in rec.traces_matching("len=1460")
    ] or rec.traces_matching("len=")
    assert data_traces
    stages = [e.stage for e in rec.timeline(data_traces[0])]
    for expected in (
        "tcp.output", "netio.send", "nic.tx", "link.tx",
        "nic.rx", "demux.classify", "netio.deliver", "tcp.input",
    ):
        assert expected in stages, f"missing {expected} in {stages}"
    # Hops are recorded in time order ending at the receiving TCP.
    assert stages[0] == "tcp.output" and stages[-1] == "tcp.input"


def test_dropped_frames_end_at_link_drop_and_retransmit_is_flagged():
    session = obs.enable()
    testbed = Testbed(
        network="ethernet",
        organization="userlib",
        faults=FaultInjector(drop_rate=0.08, seed=3),
    )
    transfer(testbed, nbytes=30_000)
    rec = session.spans
    drops = [e for e in rec.events if e.stage == "link.drop"]
    assert drops, "fault injector dropped nothing at 8%"
    assert all(e.detail == "fault" for e in drops)
    # A dropped frame's timeline ends at the wire: no receive-side hops.
    dropped_tid = drops[0].trace_id
    stages = [e.stage for e in rec.timeline(dropped_tid)]
    assert "link.drop" in stages
    assert "tcp.input" not in stages[stages.index("link.drop"):]
    # The loss forced retransmissions, and they are flagged at birth.
    retrans = rec.traces_matching("retransmit")
    assert retrans, "no retransmission traces despite drops"
    first = rec.timeline(retrans[0])[0]
    assert first.stage == "tcp.output" and "retransmit" in first.detail


def test_duplicated_frames_are_annotated_and_delivered_twice():
    session = obs.enable()
    testbed = Testbed(
        network="ethernet",
        organization="userlib",
        faults=FaultInjector(duplicate_rate=1.0, seed=1),
    )
    transfer(testbed, nbytes=4000)
    rec = session.spans
    dup_events = [e for e in rec.events if e.stage == "link.tx" and "dup" in e.detail]
    assert dup_events, "duplicate_rate=1.0 produced no dup annotations"
    # Both copies of a duplicated data frame reach the NIC: its trace
    # shows at least two nic.rx hops.
    tid = dup_events[0].trace_id
    nic_rx = [e for e in rec.timeline(tid) if e.stage == "nic.rx"]
    assert len(nic_rx) >= 2


def test_spans_follow_a_segment_through_every_router():
    """A forwarded packet used to leave each router as a chain built
    around a view of the received frame: no trace id, so its fused bytes
    were never bound and the timeline stopped at the first router."""
    session = obs.enable()
    fabric = FabricTestbed(kind="chain", organization="userlib", n_routers=2)
    host_a, host_b = fabric.hosts

    def server():
        listener = yield from fabric.service(host_b).listen(9300)
        conn = yield from listener.accept()
        yield from conn.recv_exactly(5000)

    def client():
        conn = yield from fabric.service(host_a).connect(host_b.ip, 9300)
        yield from conn.send(b"x" * 5000)
        yield from conn.close()

    proc = fabric.spawn(server(), name="server")
    fabric.spawn(client(), name="client")
    fabric.run(until=proc)
    rec = session.spans
    timeline = rec.timeline(rec.traces_matching("len=1460")[0])
    forwarded = [e.node for e in timeline if e.stage == "router.forward"]
    assert forwarded == [router.name for router in fabric.routers]
    # Each router's transmit hop is on it too, and so is the far end.
    sent = [e.node for e in timeline if e.stage == "netio.send"]
    assert sent[1:] == [router.interfaces[1].netio.name for router in fabric.routers]
    assert [(e.stage, e.node) for e in timeline[-2:]] == [
        ("netio.deliver", host_b.netio.name), ("tcp.input", f"app-{host_b.name}"),
    ]
    assert len(timeline) == 20


def test_disabled_plane_records_nothing():
    testbed = Testbed(network="ethernet", organization="userlib")
    transfer(testbed)
    assert obs.SESSION is None  # and the transfer still worked
