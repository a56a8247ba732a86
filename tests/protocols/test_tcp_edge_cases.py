"""Additional TCP machine edge cases beyond the core behaviour suite."""

import pytest

from repro.net.headers import TCP_ACK, TCP_RST
from repro.protocols.tcp import (
    AppSend,
    Segment,
    State,
    TcpConfig,
    TcpError,
)

from .tcp_harness import TcpPair


def test_half_close_peer_keeps_sending():
    """After our FIN, the peer may keep sending data (half-close)."""
    pair = TcpPair()
    pair.connect()
    pair.app_close("a")  # a: FIN -> FIN_WAIT_2; b: CLOSE_WAIT.
    pair.run(until=pair.now + 1.0)
    assert pair.b.machine.state is State.CLOSE_WAIT
    # b keeps sending; a must accept and ACK it.
    pair.app_send("b", b"late data after your FIN")
    pair.run(until=pair.now + 1.0)
    assert bytes(pair.a.received) == b"late data after your FIN"
    pair.app_close("b")
    pair.run(until=pair.now + 30.0)
    assert pair.a.machine.state is State.CLOSED
    assert pair.b.machine.state is State.CLOSED


def test_send_in_close_wait_allowed():
    pair = TcpPair()
    pair.connect()
    pair.app_close("a")
    pair.run(until=pair.now + 1.0)
    # b is in CLOSE_WAIT and may still send.
    assert pair.b.machine.state is State.CLOSE_WAIT
    pair.app_send("b", b"fine")
    pair.run(until=pair.now + 1.0)
    assert bytes(pair.a.received) == b"fine"


def test_persist_interval_backs_off():
    pair = TcpPair(
        config_a=TcpConfig(mss=500, msl=0.5),
        config_b=TcpConfig(mss=500, rcv_buffer=1000, msl=0.5),
    )
    pair.connect()
    pair.b.auto_read = False
    pair.app_send("a", b"p" * 4000)
    pair.run(until=pair.now + 60.0)
    # Probes fired, but sub-linearly (exponential backoff capped at 60s).
    probes = pair.a.machine.stats["probes_sent"]
    assert 1 <= probes <= 8


def test_receiver_trims_beyond_window():
    """Payload beyond the advertised window is trimmed, not stored."""
    pair = TcpPair(
        config_a=TcpConfig(mss=1460, msl=0.5),
        config_b=TcpConfig(mss=1460, rcv_buffer=1000, msl=0.5),
    )
    pair.connect()
    pair.b.auto_read = False
    tcb_b = pair.b.machine.tcb
    # Craft an oversized in-window segment by hand.
    seg = Segment(
        sport=5000, dport=80,
        seq=tcb_b.rcv_nxt, ack=tcb_b.snd_nxt,
        flags=TCP_ACK, window=1000,
        payload=b"z" * 2000,  # Twice the receiver's whole buffer.
    )
    pair.inject("b", seg)
    assert tcb_b.rcv_user <= 1000


def test_peer_mss_larger_than_ours_is_capped():
    pair = TcpPair(
        config_a=TcpConfig(mss=536, msl=0.5),
        config_b=TcpConfig(mss=1460, msl=0.5),
    )
    pair.connect()
    assert pair.a.machine.tcb.mss == 536
    assert pair.b.machine.tcb.mss == 536
    pair.app_send("b", b"q" * 5000)
    pair.run()
    data_segs = [
        seg for _, d, seg in pair.wire_log if d == "b->a" and seg.payload
    ]
    assert all(len(seg.payload) <= 536 for seg in data_segs)


def test_blind_rst_requires_in_window_sequence():
    """A RST with the exact next sequence kills the connection; one a
    window away does not (RFC 793's acceptability rule)."""
    pair = TcpPair()
    pair.connect()
    tcb = pair.a.machine.tcb
    outside = Segment(
        sport=80, dport=5000,
        seq=(tcb.rcv_nxt + tcb.rcv_wnd + 1000) % (1 << 32),
        ack=0, flags=TCP_RST, window=0,
    )
    pair.inject("a", outside)
    assert pair.a.machine.state is State.ESTABLISHED
    exact = Segment(
        sport=80, dport=5000, seq=tcb.rcv_nxt, ack=0, flags=TCP_RST, window=0,
    )
    pair.inject("a", exact)
    assert pair.a.machine.state is State.CLOSED


def test_listener_close_then_syn_gets_no_answer():
    pair = TcpPair()
    pair._do(pair.b, pair.b.machine.open(0.0, active=False))
    pair._do(pair.b, pair.b.machine.handle(
        __import__("repro.protocols.tcp", fromlist=["AppClose"]).AppClose(),
        0.0,
    ))
    assert pair.b.machine.state is State.CLOSED


def test_write_larger_than_buffer_is_chunked_by_runner_not_machine():
    """The machine rejects oversized writes; callers must respect
    send_buffer_space (the runner layer does the chunking)."""
    pair = TcpPair(config_a=TcpConfig(snd_buffer=2048, msl=0.5))
    pair.connect()
    with pytest.raises(TcpError):
        pair.a.machine.handle(AppSend(b"x" * 4096), pair.now)


def test_data_before_established_is_queued():
    """Data written during SYN_SENT is sent once the handshake ends."""
    pair = TcpPair()
    pair._do(pair.b, pair.b.machine.open(0.0, active=False))
    pair._do(pair.a, pair.a.machine.open(0.0, active=True))
    # Queue data immediately, before the SYN|ACK returns.
    pair._do(pair.a, pair.a.machine.handle(AppSend(b"early"), pair.now))
    pair.run()
    assert pair.a.connected
    assert bytes(pair.b.received) == b"early"


def test_duplicate_fin_handled_idempotently():
    pair = TcpPair()
    pair.connect()
    pair.app_close("b")
    pair.run(until=pair.now + 1.0)
    assert pair.a.machine.state is State.CLOSE_WAIT
    rcv_nxt_after_fin = pair.a.machine.tcb.rcv_nxt
    fin_seg = next(
        seg for _, d, seg in pair.wire_log if d == "b->a" and seg.fin
    )
    pair.inject("a", fin_seg)  # Retransmitted FIN.
    assert pair.a.machine.tcb.rcv_nxt == rcv_nxt_after_fin
    assert pair.a.machine.state is State.CLOSE_WAIT


def test_simultaneous_open():
    """Both ends active-open at once: SYN_SENT -> SYN_RCVD -> ESTABLISHED
    (RFC 793 figure 8), and the connection then carries data normally."""
    pair = TcpPair()
    pair._do(pair.a, pair.a.machine.open(pair.now, active=True))
    pair._do(pair.b, pair.b.machine.open(pair.now, active=True))
    pair.run(until=pair.now + 5.0)
    assert pair.a.machine.state is State.ESTABLISHED
    assert pair.b.machine.state is State.ESTABLISHED
    assert (State.SYN_SENT, State.SYN_RCVD) in pair.a.machine.transitions
    assert (State.SYN_SENT, State.SYN_RCVD) in pair.b.machine.transitions
    pair.app_send("a", b"hello from a")
    pair.run(until=pair.now + 1.0)
    assert bytes(pair.b.received) == b"hello from a"


def test_simultaneous_close():
    """FINs cross on the wire: FIN_WAIT_1 -> CLOSING -> TIME_WAIT on both
    sides, and both reach CLOSED after 2*MSL."""
    pair = TcpPair()
    pair.connect()
    pair.app_close("a")
    pair.app_close("b")  # Before a's FIN arrives.
    pair.run(until=pair.now + 5.0)
    assert (State.FIN_WAIT_1, State.CLOSING) in pair.a.machine.transitions
    assert (State.FIN_WAIT_1, State.CLOSING) in pair.b.machine.transitions
    assert pair.a.machine.state is State.CLOSED
    assert pair.b.machine.state is State.CLOSED
    assert pair.a.closed_reason == "done"
    assert pair.b.closed_reason == "done"


def test_half_close_data_delivered_with_fin():
    """Data queued right before close is delivered ahead of the FIN, and
    the half-closed side still receives the peer's response."""
    pair = TcpPair()
    pair.connect()
    pair.app_send("a", b"request")
    pair.app_close("a")
    pair.run(until=pair.now + 2.0)
    assert bytes(pair.b.received) == b"request"
    assert pair.b.got_fin
    assert pair.b.machine.state is State.CLOSE_WAIT
    # b answers from CLOSE_WAIT; a, already in FIN_WAIT_2, must accept it.
    pair.app_send("b", b"response")
    pair.run(until=pair.now + 2.0)
    assert bytes(pair.a.received) == b"response"
    assert pair.a.machine.state is State.FIN_WAIT_2
    pair.app_close("b")
    pair.run(until=pair.now + 30.0)
    assert pair.a.machine.state is State.CLOSED
    assert pair.b.machine.state is State.CLOSED


@pytest.mark.parametrize("rcv_buffer", [65535, 131072])
def test_app_read_announces_only_a_window_the_field_can_carry(rcv_buffer):
    """The window field clamps at 65,535, so a read that frees buffer
    above it opens nothing the peer can see: a window-update sized
    from the unclamped ``rcv_wnd`` went out on every read, defeating
    delayed ACKs and — with data in flight and the reader behind —
    reaching the peer as duplicate ACKs: a fast retransmit, cwnd
    collapsed, and not one segment lost."""
    pair = TcpPair(
        config_a=TcpConfig(msl=0.5, snd_buffer=65536),
        config_b=TcpConfig(msl=0.5, rcv_buffer=rcv_buffer),
    )
    pair.connect()
    a, b = pair.a.machine, pair.b.machine
    total = 256 * 1024
    sent = 0
    while sent < total:
        room = min(4096, a.tcb.send_buffer_space, total - sent)
        if room:
            pair.app_send("a", b"x" * room)
            sent += room
        pair.run(until=pair.now + 0.01)
    pair.run(until=pair.now + 2.0)
    assert len(pair.b.received) == total
    data_segments = sum(1 for seg in pair.a.emitted if seg.payload)
    pure_acks = sum(1 for seg in pair.b.emitted if not seg.payload and not seg.syn)
    # Every other segment, plus the odd delayed-ACK timeout.
    assert pure_acks <= data_segments // 2 + 40
    assert a.stats["dup_acks_received"] == 0

    # The reader falls behind while more data is on its way.
    pair.b.auto_read = False
    cwnd = a.tcb.cc.cwnd
    pair.app_send("a", b"y" * 32768)
    pair.run(until=pair.now + 0.01)
    assert a.tcb.flight_size > 0 and b.tcb.rcv_user >= 12 * 512
    for _ in range(12):
        pair.app_read("b", 512)
    pair.run(until=pair.now + 0.02)
    assert a.stats["dup_acks_received"] == 0
    assert a.stats["fast_retransmits"] == 0
    assert a.tcb.cc.cwnd >= cwnd
    assert not pair.dropped
