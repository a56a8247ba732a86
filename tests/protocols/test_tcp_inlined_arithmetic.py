"""The ``Tcb`` properties as the oracle for the code that stopped
calling them.

``TcpMachine._try_output``, ``_emit``, ``_app_read``, ``_ack_advances``
and ``_acceptable`` spell ``Tcb.flight_size`` / ``send_window`` /
``unsent_bytes`` / ``rcv_wnd`` / ``mss`` as plain arithmetic (a property
chain costs 16 profiled calls per output-loop turn).  ``OracleMachine``
below keeps those five methods as they read *through the properties*;
every event of a random scenario — loss, duplication, differing MSS, a
receive buffer beyond the 16-bit window field, stalled readers, zero
windows, Nagle on and off, closes — goes to a shipped machine and an
oracle side by side, and they must return the same actions and land in
the same TCB, step for step.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.net.headers import TCP_ACK, TCP_FIN, TCP_PSH, TCP_SYN
from repro.protocols.tcp import (
    CancelTimer,
    EmitSegment,
    NotifyClosed,
    Segment,
    SegmentArrives,
    SendSpaceAvailable,
    SetTimer,
    State,
    TcpConfig,
    TcpError,
    TcpMachine,
    TIMER_DELACK,
    TIMER_PERSIST,
    TIMER_REXMT,
)

from .tcp_harness import TcpPair


class OracleMachine(TcpMachine):
    """The five methods as they read before PR 24: every derived
    quantity through its ``Tcb`` property."""

    def _advertised_window(self):
        tcb = self.tcb
        window = min(tcb.rcv_wnd, self._MAX_WINDOW)
        tcb.rcv_adv = tcb.rcv_nxt + window
        return window

    def _emit(self, actions, seq, flags, payload=b"", mss=None, retransmit=False):
        tcb = self.tcb
        segment = Segment(
            sport=tcb.local_port,
            dport=tcb.remote_port,
            seq=seq & 0xFFFFFFFF,
            ack=tcb.rcv_nxt & 0xFFFFFFFF if flags & TCP_ACK else 0,
            flags=flags,
            window=self._advertised_window(),
            payload=payload,
            mss=mss,
        )
        self.stats["segments_sent"] += 1
        self.stats["bytes_sent"] += len(payload)
        if retransmit:
            self.stats["retransmits"] += 1
        actions.append(EmitSegment(segment, retransmit=retransmit))
        if flags & TCP_ACK and tcb.delack_pending:
            tcb.delack_pending = False
            actions.append(CancelTimer(TIMER_DELACK))

    def _app_read(self, nbytes, now):
        tcb = self.tcb
        if nbytes < 0 or nbytes > tcb.rcv_user:
            raise TcpError(f"read of {nbytes} bytes; {tcb.rcv_user} delivered")
        tcb.rcv_user -= nbytes
        actions = []
        opening = tcb.rcv_nxt + min(tcb.rcv_wnd, self._MAX_WINDOW) - tcb.rcv_adv
        peer_may_send = tcb.state in (
            State.ESTABLISHED, State.FIN_WAIT_1, State.FIN_WAIT_2
        )
        if peer_may_send and opening >= min(
            2 * tcb.mss, tcb.config.rcv_buffer // 2
        ):
            self._emit_ack(actions)
        return actions

    def _acceptable(self, seq, size, flags):
        tcb = self.tcb
        wnd = tcb.rcv_wnd
        if wnd == 0:
            return seq == tcb.rcv_nxt and not size and not flags & TCP_SYN
        seg_len = size + (1 if flags & TCP_SYN else 0) + (1 if flags & TCP_FIN else 0)
        edge = tcb.rcv_nxt + wnd
        if seg_len == 0:
            return tcb.rcv_nxt <= seq < edge
        return tcb.rcv_nxt <= seq < edge or tcb.rcv_nxt <= seq + seg_len - 1 < edge

    def _ack_advances(self, ack, actions, now):
        tcb = self.tcb
        acked = ack - tcb.snd_una
        if acked <= 0:
            return
        rtt_sample = tcb.rtt.on_ack(ack, now)
        if rtt_sample is not None:
            tcb.cc.on_rtt_sample(rtt_sample, now)
        tcb.cc.on_new_ack(acked, now, max(0, tcb.flight_size - acked))
        tcb.snd_una = ack
        tcb.rexmt_count = 0
        drop = min(max(0, ack - tcb.buf_base), len(tcb.send_buffer))
        if drop:
            del tcb.send_buffer[:drop]
            tcb.buf_base += drop
            actions.append(SendSpaceAvailable(drop))
        if tcb.snd_nxt < tcb.snd_una:
            tcb.snd_nxt = tcb.snd_una
        if tcb.flight_size > 0:
            actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))
        else:
            actions.append(CancelTimer(TIMER_REXMT))
        if tcb.fin_sent and tcb.fin_seq is not None and ack > tcb.fin_seq:
            if tcb.state is State.FIN_WAIT_1:
                self._set_state(State.FIN_WAIT_2)
            elif tcb.state is State.CLOSING:
                self._enter_time_wait(actions)
            elif tcb.state is State.LAST_ACK:
                self._set_state(State.CLOSED)
                for name in (TIMER_REXMT, TIMER_PERSIST, TIMER_DELACK):
                    actions.append(CancelTimer(name))
                actions.append(NotifyClosed("done"))

    def _should_send(self, length, unsent, flight):
        tcb = self.tcb
        if length >= tcb.mss:
            return True
        if length == unsent and (flight == 0 or not tcb.config.nagle):
            return True
        return length * 2 >= tcb.config.rcv_buffer

    def _try_output(self, actions, now):
        tcb = self.tcb
        if tcb.state not in (
            State.ESTABLISHED, State.CLOSE_WAIT, State.FIN_WAIT_1,
            State.CLOSING, State.LAST_ACK, State.SYN_RCVD,
        ):
            return
        sent_any = False
        while True:
            flight = tcb.flight_size
            usable = tcb.send_window - flight
            unsent = tcb.unsent_bytes
            length = min(tcb.mss, unsent, max(0, usable))
            if length <= 0:
                break
            if not self._should_send(length, unsent, flight):
                break
            offset = tcb.snd_nxt - tcb.buf_base
            chunk = bytes(tcb.send_buffer[offset : offset + length])
            flags = TCP_ACK
            is_last = offset + length == len(tcb.send_buffer)
            if is_last:
                flags |= TCP_PSH
            fin_now = tcb.fin_pending and not tcb.fin_sent and is_last and usable > length
            if fin_now:
                flags |= TCP_FIN
            self._emit(actions, seq=tcb.snd_nxt, flags=flags, payload=chunk)
            tcb.rtt.start_timing(tcb.snd_nxt + length, now)  # A no-op while timing.
            tcb.snd_nxt += length + (1 if fin_now else 0)
            tcb.snd_max = max(tcb.snd_max, tcb.snd_nxt)
            if fin_now:
                self._mark_fin_sent(tcb.snd_nxt - 1)
            sent_any = True
        if (
            tcb.fin_pending
            and not tcb.fin_sent
            and tcb.unsent_bytes == 0
            and tcb.flight_size < tcb.send_window + 1
        ):
            self._send_fin(actions)
            sent_any = True
        if sent_any:
            actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))
        elif (
            tcb.snd_wnd == 0
            and tcb.flight_size == 0
            and (tcb.unsent_bytes > 0 or (tcb.fin_pending and not tcb.fin_sent))
        ):
            actions.append(SetTimer(TIMER_PERSIST, self._persist_interval()))


def picture(machine: TcpMachine) -> dict:
    """Everything the inlined arithmetic reads or writes, with the five
    properties it replaces read off the TCB they describe."""
    tcb = machine.tcb
    return {
        "state": tcb.state,
        "snd": (tcb.snd_una, tcb.snd_nxt, tcb.snd_max, tcb.snd_wnd, tcb.snd_wl1, tcb.snd_wl2),
        "rcv": (tcb.rcv_nxt, tcb.rcv_adv, tcb.rcv_user),
        "buffer": (tcb.buf_base, bytes(tcb.send_buffer)),
        "fin": (tcb.fin_pending, tcb.fin_sent, tcb.fin_seq, tcb.fin_rcvd),
        "flags": (tcb.delack_pending, tcb.rexmt_count, tcb.persist_shift),
        "cc": (tcb.cc.cwnd, tcb.cc.ssthresh),
        "derived": (tcb.flight_size, tcb.send_window, tcb.unsent_bytes, tcb.rcv_wnd, tcb.mss),
        "stats": dict(machine.stats),
    }


class Twin:
    """A shipped machine and an oracle fed the same inputs; it answers
    as the shipped one after checking the oracle agrees."""

    def __init__(self, local_port, remote_port, config, iss) -> None:
        self.shipped = TcpMachine(local_port, remote_port, config=config, iss=iss)
        self.oracle = OracleMachine(local_port, remote_port, config=config, iss=iss)
        self.steps = 0

    @property
    def tcb(self):
        return self.shipped.tcb

    def _both(self, call):
        results = []
        for machine in (self.shipped, self.oracle):
            try:
                results.append(call(machine))
            except TcpError as exc:
                results.append(("TcpError", str(exc)))
        self.steps += 1
        assert results[0] == results[1], f"step {self.steps}: actions differ"
        assert picture(self.shipped) == picture(self.oracle), f"step {self.steps}: TCBs differ"
        if isinstance(results[0], tuple):
            raise TcpError(results[0][1])
        return results[0]

    def open(self, now, active=True):
        return self._both(lambda machine: machine.open(now, active=active))

    def handle(self, event, now):
        def feed(machine):
            # Header prediction first, as MachineRunner.feed_segment does.
            if event.__class__ is SegmentArrives:
                actions = machine.fast_input(event.segment, now)
                if actions is not None:
                    return actions
            return machine.handle(event, now)

        return self._both(feed)


#: Short timers, so losses and closes play out inside a scenario.
FAST = dict(msl=0.2, min_rto=0.3, initial_rto=0.5)
CONFIGS = st.builds(
    TcpConfig,
    mss=st.sampled_from([100, 536, 1460]),
    rcv_buffer=st.sampled_from([600, 4096, 16384, 100_000]),
    snd_buffer=st.sampled_from([1024, 16384, 100_000]),
    nagle=st.booleans(),
    **{name: st.just(value) for name, value in FAST.items()},
)
SMALL = TcpConfig(mss=100, rcv_buffer=600, snd_buffer=1024, **FAST)
HALF = TcpConfig(mss=536, rcv_buffer=600, **FAST)
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["send", "send", "read", "run", "run", "close"]),
        st.sampled_from(["a", "b"]),
        st.integers(min_value=1, max_value=9000),
    ),
    min_size=1,
    max_size=25,
)


# (Seeded: tests/conftest.py derandomizes every property in the suite.)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    config_a=CONFIGS,
    config_b=CONFIGS,
    steps=STEPS,
    drops=st.sets(st.integers(min_value=0, max_value=60), max_size=8),
    dups=st.sets(st.integers(min_value=0, max_value=60), max_size=4),
    stalled=st.sampled_from(["", "a", "b", "ab"]),
)
# The edges a random walk rarely lands on.  A short segment that is
# exactly half the peer's buffer goes out past Nagle:
@example(
    config_a=HALF, config_b=HALF,
    steps=[("send", "a", 100), ("send", "a", 300), ("run", "a", 900)],
    drops=set(), dups=set(), stalled="",
)
# A reader that never reads: the window fills and shuts, the FIN goes
# out against it (``flight < window + 1``), then it reopens.
@example(
    config_a=SMALL, config_b=SMALL,
    steps=[("send", "a", 600), ("run", "a", 3000), ("close", "a", 1),
           ("run", "a", 3000), ("read", "b", 600), ("run", "b", 3000)],
    drops=set(), dups=set(), stalled="b",
)
def test_inlined_arithmetic_agrees_with_the_tcb_properties(
    config_a, config_b, steps, drops, dups, stalled
):
    pair = TcpPair(
        config_a=config_a,
        config_b=config_b,
        drop=lambda direction, index, segment: index in drops,
        dup=lambda direction, index, segment: index in dups,
    )
    pair.a.machine = Twin(5000, 80, config_a, 1000)
    pair.b.machine = Twin(80, 5000, config_b, 0xFFFFF000)  # Wraps in-flight.
    # A stalled reader consumes only on "read" steps: its window shuts.
    pair.a.auto_read = "a" not in stalled
    pair.b.auto_read = "b" not in stalled
    pair.connect(run=False)
    pair.run(until=30.0)
    for kind, who, amount in steps:
        endpoint = pair.a if who == "a" else pair.b
        tcb = endpoint.machine.tcb
        if kind == "send":
            writable = tcb.state in (State.ESTABLISHED, State.CLOSE_WAIT)
            size = min(amount, tcb.send_buffer_space)
            if writable and size and not tcb.fin_pending:
                pair.app_send(who, bytes(size))
        elif kind == "read":
            if tcb.rcv_user:
                pair.app_read(who, min(amount, tcb.rcv_user))
        elif kind == "close":
            pair.app_close(who)
        else:
            pair.step_time(amount / 1000.0)
    pair.run(until=pair.now + 120.0)
    assert pair.a.machine.steps + pair.b.machine.steps > 4
