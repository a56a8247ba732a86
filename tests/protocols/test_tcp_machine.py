"""Behavioural tests for the TCP machine: handshake, transfer, loss
recovery, flow control, close sequences, and resets."""

import pytest

from repro.net.headers import TCP_ACK, TCP_RST, TCP_SYN
from repro.protocols.tcp import (
    AppSend,
    Segment,
    State,
    TcpConfig,
    TcpError,
    TcpMachine,
)

from .tcp_harness import TcpPair


# ----------------------------------------------------------------------
# Connection establishment
# ----------------------------------------------------------------------


def test_three_way_handshake():
    pair = TcpPair()
    pair.connect()
    assert pair.a.machine.state is State.ESTABLISHED
    assert pair.b.machine.state is State.ESTABLISHED
    # Exactly SYN, SYN|ACK, ACK on the wire.
    flags = [seg.flags & (TCP_SYN | TCP_ACK) for _, _, seg in pair.wire_log[:3]]
    assert flags == [TCP_SYN, TCP_SYN | TCP_ACK, TCP_ACK]


def test_mss_negotiated_to_minimum():
    pair = TcpPair(
        config_a=TcpConfig(mss=1460, msl=0.5),
        config_b=TcpConfig(mss=512, msl=0.5),
    )
    pair.connect()
    assert pair.a.machine.tcb.mss == 512
    assert pair.b.machine.tcb.mss == 512


def test_syn_retransmitted_on_loss():
    pair = TcpPair(drop=lambda d, i, s: d == "a->b" and i == 0)
    pair.connect()
    assert pair.a.connected
    assert pair.a.machine.stats["retransmits"] >= 1


def test_synack_retransmitted_on_loss():
    pair = TcpPair(drop=lambda d, i, s: d == "b->a" and i == 0)
    pair.connect()
    assert pair.a.connected and pair.b.connected


def test_connection_refused_by_rst():
    pair = TcpPair()
    # b is CLOSED (never opened); a's SYN gets a RST back.
    pair._do(pair.a, pair.a.machine.open(0.0, active=True))
    pair.run()
    assert pair.a.closed_reason == "refused"
    assert pair.a.machine.state is State.CLOSED


def test_connect_timeout_when_peer_silent():
    # Drop everything a sends; connection establishment must time out.
    pair = TcpPair(
        config_a=TcpConfig(conn_timeout=2.0, msl=0.5),
        drop=lambda d, i, s: d == "a->b",
    )
    pair._do(pair.a, pair.a.machine.open(0.0, active=True))
    pair.run(until=100.0)
    assert pair.a.closed_reason == "timeout"


def test_listen_ignores_stray_rst():
    pair = TcpPair()
    pair._do(pair.b, pair.b.machine.open(0.0, active=False))
    pair.inject(
        "b",
        Segment(sport=5000, dport=80, seq=1, ack=0, flags=TCP_RST, window=0),
    )
    assert pair.b.machine.state is State.LISTEN


def test_listen_rejects_stray_ack_with_rst():
    pair = TcpPair()
    pair._do(pair.b, pair.b.machine.open(0.0, active=False))
    pair.inject(
        "b",
        Segment(sport=5000, dport=80, seq=1, ack=77, flags=TCP_ACK, window=0),
    )
    assert pair.b.machine.state is State.LISTEN
    rst = pair.b.emitted[-1]
    assert rst.rst
    assert rst.seq == 77  # Mirrors the offending ACK.


def test_simultaneous_open():
    pair = TcpPair()
    # Both actively open toward each other.
    pair.a.machine.tcb.remote_port = 80
    pair.b.machine.tcb.remote_port = 5000
    pair._do(pair.a, pair.a.machine.open(0.0, active=True))
    pair._do(pair.b, pair.b.machine.open(0.0, active=True))
    pair.run(until=30.0)
    assert pair.a.machine.state is State.ESTABLISHED
    assert pair.b.machine.state is State.ESTABLISHED


# ----------------------------------------------------------------------
# Data transfer
# ----------------------------------------------------------------------


def test_simple_data_transfer():
    pair = TcpPair()
    pair.connect()
    pair.app_send("a", b"hello, world")
    pair.run()
    assert bytes(pair.b.received) == b"hello, world"


def test_bidirectional_transfer():
    pair = TcpPair()
    pair.connect()
    pair.app_send("a", b"ping")
    pair.app_send("b", b"pong")
    pair.run()
    assert bytes(pair.b.received) == b"ping"
    assert bytes(pair.a.received) == b"pong"


def test_large_transfer_segmented_by_mss():
    pair = TcpPair(
        config_a=TcpConfig(mss=500, snd_buffer=100_000, msl=0.5),
        config_b=TcpConfig(mss=500, rcv_buffer=8000, msl=0.5),
    )
    pair.connect()
    data = bytes(range(256)) * 40  # 10240 bytes.
    pair.app_send("a", data)
    pair.run()
    assert bytes(pair.b.received) == data
    data_segments = [
        seg for _, d, seg in pair.wire_log if d == "a->b" and seg.payload
    ]
    assert all(len(seg.payload) <= 500 for seg in data_segments)


def test_delivery_in_order_despite_reordering():
    # Swap the delivery order of the 3rd and 4th data segments.
    def latency_fn(direction, index, segment):
        if direction == "a->b" and segment.payload and index == 4:
            return 0.030
        return 0.005

    pair = TcpPair(
        config_a=TcpConfig(mss=100, msl=0.5), latency_fn=latency_fn
    )
    pair.connect()
    data = bytes(range(200)) * 3
    pair.app_send("a", data)
    pair.run()
    assert bytes(pair.b.received) == data


def test_retransmit_recovers_lost_data_segment():
    dropped = {3}  # Drop the 4th a->b transmission (a data segment).
    pair = TcpPair(drop=lambda d, i, s: d == "a->b" and i in dropped)
    pair.connect()
    data = b"x" * 5000
    pair.app_send("a", data)
    pair.run()
    assert bytes(pair.b.received) == data
    assert pair.a.machine.stats["retransmits"] >= 1


def test_fast_retransmit_triggers_on_dupacks():
    # Lose one mid-stream segment while many follow: receiver dup-acks.
    pair = TcpPair(
        config_a=TcpConfig(mss=200, msl=0.5, min_rto=10.0, initial_rto=10.0),
        drop=lambda d, i, s: d == "a->b" and i == 4,
    )
    pair.connect()
    # Prime cwnd so many segments are in flight at once.
    pair.a.machine.tcb.cc.cwnd = 20000
    data = bytes(range(250)) * 16  # 4000 bytes = 20 segments.
    pair.app_send("a", data)
    pair.run(until=9.0)  # Well below the inflated RTO.
    assert bytes(pair.b.received) == data
    assert pair.a.machine.stats["fast_retransmits"] >= 1


def test_ack_loss_is_harmless():
    pair = TcpPair(drop=lambda d, i, s: d == "b->a" and i == 2)
    pair.connect()
    pair.app_send("a", b"payload under lost ack")
    pair.run()
    assert bytes(pair.b.received) == b"payload under lost ack"


def test_duplicate_delivery_suppressed():
    pair = TcpPair(dup=lambda d, i, s: d == "a->b")
    pair.connect()
    data = b"exactly once" * 100
    pair.app_send("a", data)
    pair.run()
    assert bytes(pair.b.received) == data


def test_send_buffer_limit_enforced():
    pair = TcpPair(config_a=TcpConfig(snd_buffer=1000, msl=0.5))
    pair.connect()
    with pytest.raises(TcpError):
        pair.a.machine.handle(AppSend(b"y" * 2000), pair.now)


def test_send_on_unopened_connection_rejected():
    machine = TcpMachine(1, 2)
    with pytest.raises(TcpError):
        machine.handle(AppSend(b"x"), 0.0)


def test_delayed_ack_coalesces():
    pair = TcpPair(config_a=TcpConfig(mss=100, msl=0.5))
    pair.connect()
    pair.app_send("a", b"z" * 1000)  # 10 segments.
    pair.run()
    pure_acks = [
        seg
        for _, d, seg in pair.wire_log
        if d == "b->a" and not seg.payload and not seg.syn
    ]
    data_segs = [
        seg for _, d, seg in pair.wire_log if d == "a->b" and seg.payload
    ]
    # Roughly one ACK per two data segments, not one per segment.
    assert len(pure_acks) < len(data_segs)
    assert pair.b.machine.stats["acks_delayed"] >= 1


def test_nagle_coalesces_small_writes():
    pair = TcpPair(config_a=TcpConfig(nagle=True, msl=0.5))
    pair.connect()
    for _ in range(20):
        pair.app_send("a", b"t")  # Tiny writes, no run() between.
    pair.run()
    assert bytes(pair.b.received) == b"t" * 20
    data_segments = [
        seg for _, d, seg in pair.wire_log if d == "a->b" and seg.payload
    ]
    # Nagle: far fewer segments than writes.
    assert len(data_segments) < 10


def test_nagle_disabled_sends_eagerly():
    pair = TcpPair(config_a=TcpConfig(nagle=False, msl=0.5))
    pair.connect()
    for _ in range(5):
        pair.app_send("a", b"t")
    pair.run()
    data_segments = [
        seg for _, d, seg in pair.wire_log if d == "a->b" and seg.payload
    ]
    assert len(data_segments) == 5


# ----------------------------------------------------------------------
# Flow control
# ----------------------------------------------------------------------


def test_receiver_window_limits_sender():
    pair = TcpPair(
        config_a=TcpConfig(mss=500, snd_buffer=64000, msl=0.5),
        config_b=TcpConfig(mss=500, rcv_buffer=2000, msl=0.5),
    )
    pair.connect()
    pair.b.auto_read = False  # Application stops reading.
    data = b"w" * 10000
    pair.app_send("a", data)
    pair.run(until=pair.now + 5.0)
    # Receiver buffer is full; no overrun happened.
    assert len(pair.b.received) <= 2000
    # Sender is stalled on a zero window.
    assert pair.a.machine.tcb.snd_wnd == 0
    # Application drains; window reopens; transfer completes.
    pair.app_read("b", len(pair.b.received))
    pair.b.auto_read = True
    pair.run(until=pair.now + 120.0)
    assert bytes(pair.b.received) == data


def test_zero_window_probe_sent():
    pair = TcpPair(
        config_a=TcpConfig(mss=500, msl=0.5),
        config_b=TcpConfig(mss=500, rcv_buffer=1000, msl=0.5),
    )
    pair.connect()
    pair.b.auto_read = False
    pair.app_send("a", b"p" * 5000)
    pair.run(until=pair.now + 30.0)
    assert pair.a.machine.stats["probes_sent"] >= 1


def test_window_update_reopens_stalled_sender():
    pair = TcpPair(
        config_a=TcpConfig(mss=500, msl=0.5),
        config_b=TcpConfig(mss=500, rcv_buffer=1500, msl=0.5),
    )
    pair.connect()
    pair.b.auto_read = False
    data = b"q" * 4500
    pair.app_send("a", data)
    pair.run(until=pair.now + 2.0)
    stalled_at = len(pair.b.received)
    assert stalled_at < len(data)
    pair.app_read("b", stalled_at)
    pair.b.auto_read = True
    pair.run(until=pair.now + 120.0)
    assert bytes(pair.b.received) == data


@pytest.mark.parametrize("shape", ["probes", "fins"])
def test_two_shut_windows_go_quiet_and_both_streams_arrive(shape):
    """Neither reader reads, so both windows shut.  ``probes``: 7,000 B
    a→b and 2,000 B b→a, both sides persist-probing; ``fins``: 600 B
    each way (one window's worth), then both close, so each FIN meets a
    shut window.  A refused probe or FIN must not leave its sender's
    snd_nxt past the peer's rcv_nxt: there every pure ACK is
    unacceptable to the shut peer (RFC 793 p.69) and draws another —
    both pairs used to trade ACKs for ever (5,000 segments by 8.05
    simulated seconds)."""
    pair = TcpPair(
        config_a=TcpConfig(rcv_buffer=600), config_b=TcpConfig(rcv_buffer=600)
    )
    pair.a.auto_read = pair.b.auto_read = False
    pair.connect()
    size_a, size_b = (7000, 2000) if shape == "probes" else (600, 600)
    sent = {"a": bytes(i % 251 for i in range(size_a)),
            "b": bytes(i % 241 for i in range(size_b))}
    pair.app_send("a", sent["a"])
    pair.app_send("b", sent["b"])
    if shape == "fins":
        pair.run(until=pair.now + 1.0)
        pair.app_close("a")
        pair.app_close("b")
    before = len(pair.wire_log)
    pair.run(until=pair.now + 60.0, max_events=1000)
    # A minute of shut windows is persist probes on a backing-off timer
    # and one answer each: no more than a few dozen segments.
    assert len(pair.wire_log) - before <= 40
    for me, peer in ((pair.a, pair.b), (pair.b, pair.a)):
        assert me.machine.tcb.snd_nxt == peer.machine.tcb.rcv_nxt
    # Both readers drain; both streams arrive whole.
    for _ in range(40):
        for who, endpoint in (("a", pair.a), ("b", pair.b)):
            unread = endpoint.machine.tcb.rcv_user
            if unread:
                pair.app_read(who, unread)
        pair.run(until=pair.now + 1.0)
    assert bytes(pair.b.received) == sent["a"]
    assert bytes(pair.a.received) == sent["b"]


# ----------------------------------------------------------------------
# Close sequences
# ----------------------------------------------------------------------


def test_active_close_full_sequence():
    pair = TcpPair()
    pair.connect()
    pair.app_send("a", b"goodbye")
    pair.app_close("a")
    pair.run(until=30.0)
    assert bytes(pair.b.received) == b"goodbye"
    assert pair.b.got_fin
    assert pair.b.machine.state is State.CLOSE_WAIT
    # Passive side closes too.
    pair.app_close("b")
    pair.run(until=pair.now + 30.0)
    # a passes through TIME_WAIT and reaches CLOSED after 2MSL.
    assert pair.a.machine.state is State.CLOSED
    assert pair.b.machine.state is State.CLOSED
    assert (State.FIN_WAIT_2, State.TIME_WAIT) in pair.a.machine.transitions


def test_passive_close_states():
    pair = TcpPair()
    pair.connect()
    pair.app_close("a")
    pair.run(until=pair.now + 1.0)
    assert pair.a.machine.state is State.FIN_WAIT_2
    assert pair.b.machine.state is State.CLOSE_WAIT
    pair.app_close("b")
    pair.run(until=pair.now + 0.5)
    assert pair.b.machine.state is State.CLOSED
    assert pair.a.machine.state is State.TIME_WAIT


def test_simultaneous_close():
    pair = TcpPair(latency=0.01)
    pair.connect()
    pair.app_close("a")
    pair.app_close("b")  # Before a's FIN arrives: both FIN_WAIT_1.
    pair.run(until=30.0)
    assert pair.a.machine.state is State.CLOSED
    assert pair.b.machine.state is State.CLOSED
    # At least one side went through CLOSING (simultaneous close path).
    transitions = pair.a.machine.transitions + pair.b.machine.transitions
    assert any(new is State.CLOSING for _, new in transitions)


def test_fin_retransmitted_on_loss():
    pair = TcpPair()
    pair.connect()
    sent_before = len(pair.wire_log)
    dropper = {"first_fin_dropped": False}

    # Drop the first FIN a sends.
    original = pair.drop

    def drop(direction, index, segment):
        if direction == "a->b" and segment.fin and not dropper["first_fin_dropped"]:
            dropper["first_fin_dropped"] = True
            return True
        return original(direction, index, segment)

    pair.drop = drop
    pair.app_close("a")
    pair.run(until=60.0)
    assert pair.b.got_fin
    assert dropper["first_fin_dropped"]


def test_fin_piggybacks_on_final_data():
    pair = TcpPair()
    pair.connect()
    pair.app_send("a", b"last words")
    pair.app_close("a")
    pair.run(until=30.0)
    fins = [seg for _, d, seg in pair.wire_log if d == "a->b" and seg.fin]
    assert len({seg.seq for seg in fins}) == 1
    assert bytes(pair.b.received) == b"last words"


def test_close_then_send_rejected():
    pair = TcpPair()
    pair.connect()
    pair.app_close("a")
    with pytest.raises(TcpError):
        pair.a.machine.handle(AppSend(b"too late"), pair.now)


def test_time_wait_expires_to_closed():
    pair = TcpPair(config_a=TcpConfig(msl=0.1))
    pair.connect()
    pair.app_close("a")
    pair.app_close("b")
    pair.run(until=pair.now + 10.0)
    assert pair.a.machine.state is State.CLOSED
    assert pair.a.closed_reason == "done"


def test_time_wait_acks_retransmitted_fin():
    pair = TcpPair(config_a=TcpConfig(msl=5.0))
    pair.connect()
    pair.app_close("a")
    pair.app_close("b")
    pair.run(until=pair.now + 2.0)
    assert pair.a.machine.state is State.TIME_WAIT
    # Peer's FIN arrives again (retransmission); must be ACKed.
    fin_seg = next(
        seg for _, d, seg in pair.wire_log if d == "b->a" and seg.fin
    )
    acks_before = len([s for s in pair.a.emitted if not s.payload])
    pair.inject("a", fin_seg)
    assert len([s for s in pair.a.emitted if not s.payload]) > acks_before
    assert pair.a.machine.state is State.TIME_WAIT


def test_read_after_both_fins_announces_no_window():
    """b sends 4,000 B that a does not read; a closes, then b.  When a
    reads them it is in TIME_WAIT and b is CLOSED: after the peer's FIN
    no more data can come, so there is no window to announce.  A window
    update there drew b's RST and marked the finished connection
    ``reset``, though both streams had arrived whole."""
    pair = TcpPair()
    pair.a.auto_read = False
    pair.connect()
    data = bytes(i % 251 for i in range(4000))
    pair.app_send("b", data)
    pair.run(until=pair.now + 1.0)
    pair.app_close("a")
    pair.run(until=pair.now + 1.0)
    pair.app_close("b")
    pair.run(until=pair.now + 0.5)
    assert pair.a.machine.state is State.TIME_WAIT
    assert pair.b.machine.state is State.CLOSED
    emitted = len(pair.a.emitted)
    pair.app_read("a", len(data))
    pair.run()
    assert pair.a.closed_reason == "done"
    assert len(pair.a.emitted) == emitted
    assert bytes(pair.a.received) == data


# ----------------------------------------------------------------------
# Reset handling
# ----------------------------------------------------------------------


def test_abort_sends_rst_and_peer_resets():
    pair = TcpPair()
    pair.connect()
    pair.app_send("a", b"data then abort")
    pair.run()
    pair.app_abort("a")
    pair.run()
    assert pair.a.machine.state is State.CLOSED
    assert pair.a.closed_reason == "aborted"
    assert pair.b.machine.state is State.CLOSED
    assert pair.b.closed_reason == "reset"


def test_blind_rst_outside_window_ignored():
    pair = TcpPair()
    pair.connect()
    bogus = Segment(
        sport=80,
        dport=5000,
        seq=0xDEAD0000,  # Far outside the window.
        ack=0,
        flags=TCP_RST,
        window=0,
    )
    pair.inject("a", bogus)
    assert pair.a.machine.state is State.ESTABLISHED


def test_in_window_syn_resets_connection():
    pair = TcpPair()
    pair.connect()
    tcb = pair.a.machine.tcb
    intruder = Segment(
        sport=80,
        dport=5000,
        seq=tcb.rcv_nxt,
        ack=0,
        flags=TCP_SYN,
        window=100,
    )
    pair.inject("a", intruder)
    assert pair.a.machine.state is State.CLOSED
    assert pair.a.closed_reason == "reset"


def test_segment_to_closed_machine_gets_rst():
    machine = TcpMachine(9, 10)
    actions = machine.handle(
        __import__(
            "repro.protocols.tcp.events", fromlist=["SegmentArrives"]
        ).SegmentArrives(
            Segment(sport=10, dport=9, seq=5, ack=0, flags=TCP_ACK, window=0)
        ),
        0.0,
    )
    emitted = [a for a in actions if hasattr(a, "segment")]
    assert len(emitted) == 1
    assert emitted[0].segment.rst


# ----------------------------------------------------------------------
# Sequence number wraparound
# ----------------------------------------------------------------------


def test_transfer_across_sequence_wraparound():
    pair = TcpPair(iss_a=(1 << 32) - 2000, iss_b=(1 << 32) - 300)
    pair.connect()
    data = bytes(range(256)) * 32  # 8192 bytes crosses both wraps.
    pair.app_send("a", data)
    pair.app_send("b", data[:1000])
    pair.run()
    assert bytes(pair.b.received) == data
    assert bytes(pair.a.received) == data[:1000]


def test_close_across_wraparound():
    pair = TcpPair(iss_a=(1 << 32) - 5)
    pair.connect()
    pair.app_send("a", b"wrap" * 10)
    pair.app_close("a")
    pair.app_close("b")
    pair.run(until=60.0)
    assert bytes(pair.b.received) == b"wrap" * 10
    assert pair.a.machine.state is State.CLOSED
    assert pair.b.machine.state is State.CLOSED
