"""Fuzz/robustness properties for the TCP machine.

Wire input is attacker-controlled: whatever segments arrive — any
flags, any sequence numbers, any order, in any connection state — the
machine must never raise, and its invariants must hold afterwards.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.headers import (
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
)
from repro.protocols.tcp import (
    AppClose,
    AppSend,
    Segment,
    SegmentArrives,
    State,
    TcpConfig,
    TcpMachine,
    TimerExpires,
    TIMER_CONN,
    TIMER_DELACK,
    TIMER_KEEPALIVE,
    TIMER_PERSIST,
    TIMER_REXMT,
    TIMER_TIME_WAIT,
)

from .legacy_seq import seq_ge

SEQ32 = st.integers(min_value=0, max_value=(1 << 32) - 1)

segments = st.builds(
    Segment,
    sport=st.just(80),
    dport=st.just(5000),
    seq=SEQ32,
    ack=SEQ32,
    flags=st.integers(min_value=0, max_value=0x3F),
    window=st.integers(min_value=0, max_value=0xFFFF),
    payload=st.binary(max_size=64),
    mss=st.one_of(st.none(), st.integers(min_value=1, max_value=0xFFFF)),
)

ALL_TIMERS = (
    TIMER_REXMT,
    TIMER_PERSIST,
    TIMER_DELACK,
    TIMER_TIME_WAIT,
    TIMER_CONN,
    TIMER_KEEPALIVE,
)

app_events = st.one_of(
    st.builds(AppSend, data=st.binary(min_size=1, max_size=256)),
    st.just(AppClose()),
    st.sampled_from([TimerExpires(name) for name in ALL_TIMERS]),
)

wire_events = st.builds(SegmentArrives, segment=segments)

event_mixes = st.lists(
    st.one_of(wire_events, app_events), min_size=1, max_size=30
)


def check_invariants(machine: TcpMachine) -> None:
    tcb = machine.tcb
    # snd_una never passes snd_nxt; snd_nxt never passes snd_max —
    # as plain integers, and so also on the circle (the old judge).
    assert tcb.snd_una <= tcb.snd_nxt <= tcb.snd_max
    assert seq_ge(tcb.snd_nxt, tcb.snd_una)
    assert seq_ge(tcb.snd_max, tcb.snd_nxt)
    # The send buffer never exceeds its configured capacity.
    assert len(tcb.send_buffer) <= tcb.config.snd_buffer
    # Windows are sane.
    assert 0 <= tcb.rcv_wnd <= tcb.config.rcv_buffer
    assert tcb.cc.cwnd >= 0


def drive(machine: TcpMachine, events, start=0.0) -> None:
    now = start
    for event in events:
        now += 0.01
        if isinstance(event, AppSend):
            data = event.data[: machine.tcb.send_buffer_space]
            if not data:
                continue
            event = AppSend(data)
            if machine.tcb.fin_pending or machine.state in (
                State.CLOSED,
                State.LISTEN,
                State.FIN_WAIT_1,
                State.FIN_WAIT_2,
                State.CLOSING,
                State.LAST_ACK,
                State.TIME_WAIT,
            ):
                continue  # API misuse is allowed to raise; skip it.
        machine.handle(event, now)
        check_invariants(machine)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=event_mixes)
def test_listen_state_survives_arbitrary_input(events):
    machine = TcpMachine(5000, 0, config=TcpConfig(), iss=100)
    machine.open(0.0, active=False)
    drive(machine, events)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=event_mixes)
def test_syn_sent_state_survives_arbitrary_input(events):
    machine = TcpMachine(5000, 80, config=TcpConfig(), iss=100)
    machine.open(0.0, active=True)
    drive(machine, events)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=event_mixes, iss=SEQ32)
def test_established_state_survives_arbitrary_input(events, iss):
    machine = TcpMachine(5000, 80, config=TcpConfig(), iss=iss)
    machine.open(0.0, active=True)
    # Complete a legitimate handshake first.
    synack = Segment(
        sport=80, dport=5000, seq=999, ack=(iss + 1) % (1 << 32),
        flags=TCP_SYN | TCP_ACK, window=8192, mss=1460,
    )
    machine.handle(SegmentArrives(synack), 0.005)
    assert machine.state is State.ESTABLISHED
    drive(machine, events, start=0.01)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=event_mixes)
def test_closed_machine_survives_arbitrary_input(events):
    machine = TcpMachine(5000, 80, config=TcpConfig(), iss=1)
    # Never opened: every wire event must be handled gracefully.
    wire_only = [e for e in events if isinstance(e, SegmentArrives)]
    now = 0.0
    for event in wire_only:
        now += 0.01
        machine.handle(event, now)
        assert machine.state is State.CLOSED


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    flags=st.integers(min_value=0, max_value=0x3F),
    seq_offset=st.integers(min_value=-(1 << 16), max_value=1 << 16),
    payload=st.binary(max_size=32),
)
def test_time_wait_never_resurrects(flags, seq_offset, payload):
    """No segment may pull a TIME-WAIT connection back to life except
    into CLOSED (2MSL expiry) — reopening needs a whole new machine."""
    machine = TcpMachine(5000, 80, config=TcpConfig(msl=1.0), iss=100)
    machine.open(0.0, active=True)
    machine.handle(
        SegmentArrives(Segment(
            sport=80, dport=5000, seq=500, ack=101,
            flags=TCP_SYN | TCP_ACK, window=8192,
        )),
        0.01,
    )
    machine.handle(AppClose(), 0.02)
    # Peer ACKs our FIN and sends its own.
    machine.handle(
        SegmentArrives(Segment(
            sport=80, dport=5000, seq=501, ack=102,
            flags=TCP_ACK | TCP_FIN, window=8192,
        )),
        0.03,
    )
    assert machine.state is State.TIME_WAIT
    probe = Segment(
        sport=80, dport=5000,
        seq=(502 + seq_offset) % (1 << 32),
        ack=102, flags=flags, window=1024, payload=payload,
    )
    machine.handle(SegmentArrives(probe), 0.04)
    assert machine.state in (State.TIME_WAIT, State.CLOSED)
