"""The sans-io TCP protocol machine.

:class:`TcpMachine` implements the full RFC 793 state machine with the
4.3BSD additions the paper's stack had: Jacobson/Karels RTT estimation,
Karn's rule, exponential backoff, slow start and congestion avoidance,
fast retransmit (optionally Reno fast recovery), delayed ACKs, Nagle's
algorithm, sender silly-window avoidance, zero-window persist probes,
and 2MSL TIME-WAIT.

The machine is *sans-io*: it owns no clock, no sockets, no threads.  It
consumes :mod:`events <repro.protocols.tcp.events>` (each call supplies
``now``) and returns :mod:`actions <repro.protocols.tcp.actions>` for
the caller to execute.  That is what lets the very same protocol code
run inside the in-kernel, single-server, dedicated-server, and
user-level-library organizations — the paper's "apples to apples"
methodology — and lets tests drive it deterministically.
"""

from __future__ import annotations

from typing import Optional

from ...net.headers import TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN
from .actions import (
    CancelTimer,
    DeliverData,
    DeliverFin,
    EmitSegment,
    NotifyClosed,
    NotifyConnected,
    SendSpaceAvailable,
    SetTimer,
    TcpAction,
    TIMER_CONN,
    TIMER_DELACK,
    TIMER_KEEPALIVE,
    TIMER_PERSIST,
    TIMER_REXMT,
    TIMER_TIME_WAIT,
)
from .events import (
    AppAbort,
    AppClose,
    AppRead,
    AppSend,
    SegmentArrives,
    TcpInputEvent,
    TimerExpires,
)
from .seq import unwrap
from .tcb import State, SYNCHRONIZED_STATES, Tcb, TcpConfig
from .wire import Segment, reset_for


class TcpError(Exception):
    """API misuse (e.g. sending on a closed connection)."""


class TcpMachine:
    """One TCP connection endpoint."""

    def __init__(
        self,
        local_port: int,
        remote_port: int = 0,
        config: Optional[TcpConfig] = None,
        iss: int = 0,
    ) -> None:
        self.tcb = Tcb(
            local_port=local_port,
            remote_port=remote_port,
            config=config or TcpConfig(),
            iss=iss,
        )
        #: Statistics for tests and benchmarks.
        self.stats: dict[str, int] = {
            "segments_sent": 0,
            "segments_received": 0,
            "retransmits": 0,
            "fast_retransmits": 0,
            "dup_acks_received": 0,
            "bytes_delivered": 0,
            "bytes_sent": 0,
            "probes_sent": 0,
            "acks_delayed": 0,
            "fastpath_ack_hits": 0,
            "fastpath_data_hits": 0,
            "fastpath_misses": 0,
        }
        self._transitions: list[tuple[State, State]] = []
        #: Congestion-event log for the ``cc-sanity`` invariant: one
        #: dict per convicted loss recording the window response.
        self.cc_events: list[dict] = []

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def state(self) -> State:
        return self.tcb.state

    @property
    def transitions(self) -> list[tuple[State, State]]:
        """State transitions observed so far (for tests)."""
        return list(self._transitions)

    def open(self, now: float, active: bool = True) -> list[TcpAction]:
        """Begin the connection: SYN for active, LISTEN for passive."""
        if self.tcb.state is not State.CLOSED:
            raise TcpError(f"open in state {self.tcb.state}")
        tcb = self.tcb
        actions: list[TcpAction] = []
        if not active:
            self._set_state(State.LISTEN)
            return actions
        if tcb.remote_port == 0:
            raise TcpError("active open requires a remote port")
        tcb.snd_una = tcb.snd_nxt = tcb.snd_max = tcb.iss
        tcb.buf_base = tcb.iss + 1
        self._set_state(State.SYN_SENT)
        self._emit_syn(actions, with_ack=False)
        actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))
        actions.append(SetTimer(TIMER_CONN, tcb.config.conn_timeout))
        return actions

    def handle(self, event: TcpInputEvent, now: float) -> list[TcpAction]:
        """Feed one input event; returns the actions to execute."""
        kind = event.__class__
        if kind is SegmentArrives:
            self.stats["segments_received"] += 1
            return self._segment_arrives(event.segment, now)
        if kind is AppSend:
            return self._app_send(event.data, now)
        if kind is AppRead:
            return self._app_read(event.nbytes, now)
        if kind is AppClose:
            return self._app_close(now)
        if kind is AppAbort:
            return self._app_abort(now)
        if kind is TimerExpires:
            return self._timer_expires(event.name, now)
        raise TcpError(f"unknown event {event!r}")

    #: Flags compatible with header prediction: ACK required, PSH
    #: tolerated, anything else (SYN/FIN/RST/URG) disqualifies.
    _PREDICTED_FLAGS = TCP_ACK | TCP_PSH

    def fast_input(self, segment: Segment, now: float) -> Optional[list[TcpAction]]:
        """Header prediction (Van Jacobson): the receive fast path.

        One comparison row decides whether ``segment`` is the *expected*
        next segment of an ESTABLISHED connection — flags carry nothing
        beyond ACK|PSH, the sequence number is exactly ``rcv_nxt``.  Two
        shapes then qualify:

        * a **pure ACK** advancing ``snd_una`` within what we have sent
          (the sender side of a bulk transfer), and
        * **next-in-sequence data** whose ACK advances nothing, fitting
          the receive window while the reassembly queue is empty (the
          receiver side).

        Hits run the short path below — the slow path's bookkeeping in
        the same order, so the emitted action list is identical; event
        dispatch, acceptability tests, reassembly, FIN and state
        transitions are skipped, not approximated.  Anything else
        returns ``None`` and the caller falls back to :meth:`handle`.
        The golden wire digests and test_fastpath_equivalence pin the
        identity.
        """
        tcb = self.tcb
        flags = segment.flags
        if (
            tcb.state is not State.ESTABLISHED
            or flags & ~self._PREDICTED_FLAGS
            or not flags & TCP_ACK
            or (seq := unwrap(segment.seq, tcb.rcv_nxt)) != tcb.rcv_nxt
        ):
            self.stats["fastpath_misses"] += 1
            return None
        payload = segment.payload
        size = len(payload)
        ack = unwrap(segment.ack, tcb.snd_una)
        advancing = False
        if not size:
            # Pure-ACK arm: either snd_una advances through sent
            # territory, or a bare window update (ack == snd_una) that
            # the slow path's duplicate-ACK test — which needs an
            # unchanged window and data in flight — provably ignores.
            # A countable duplicate ACK deliberately misses: its
            # fast-retransmit accounting belongs to the slow path.
            advancing = tcb.snd_una < ack <= tcb.snd_max
            if not advancing and not (
                ack == tcb.snd_una
                and not (segment.window == tcb.snd_wnd and tcb.snd_nxt > tcb.snd_una)
            ):
                self.stats["fastpath_misses"] += 1
                return None
            self.stats["fastpath_ack_hits"] += 1
        elif (
            ack != tcb.snd_una
            or size > tcb.config.rcv_buffer - tcb.rcv_user  # > rcv_wnd
            or tcb.reassembly.runs
        ):
            self.stats["fastpath_misses"] += 1
            return None
        else:
            self.stats["fastpath_data_hits"] += 1

        self.stats["segments_received"] += 1
        tcb.last_heard = now
        tcb.keepalive_count = 0
        actions: list[TcpAction] = []
        if advancing:
            self._ack_advances(ack, actions, now)
        # Window-update bookkeeping, verbatim from the slow path (RFC
        # 793 p.72).  Unlike BSD's fast path this one does not demand an
        # unchanged window — the receiver's advertised window breathes
        # with every app read, and the full update block (snd_wl1/wl2
        # refresh plus the zero-window persist cancel) costs one
        # comparison to replicate exactly.
        if tcb.snd_wl1 < seq or (tcb.snd_wl1 == seq and tcb.snd_wl2 <= ack):
            old_wnd = tcb.snd_wnd
            tcb.snd_wnd = segment.window
            tcb.snd_wl1 = seq
            tcb.snd_wl2 = ack
            if old_wnd == 0 and tcb.snd_wnd > 0:
                tcb.persist_shift = 0
                actions.append(CancelTimer(TIMER_PERSIST))
        if size:
            # Direct delivery, as _process_payload's empty-queue arm.
            tcb.rcv_nxt += size
            tcb.rcv_user += size
            self.stats["bytes_delivered"] += size
            actions.append(DeliverData(payload))
            if tcb.delack_pending:
                tcb.delack_pending = False
                actions.append(CancelTimer(TIMER_DELACK))
                self._emit_ack(actions)
            else:
                tcb.delack_pending = True
                self.stats["acks_delayed"] += 1
                actions.append(SetTimer(TIMER_DELACK, tcb.config.delack_time))
        self._try_output(actions, now)
        return actions

    # ------------------------------------------------------------------
    # State bookkeeping
    # ------------------------------------------------------------------

    def _set_state(self, new: State) -> None:
        old = self.tcb.state
        if old is not new:
            self._transitions.append((old, new))
            self.tcb.state = new

    #: cc_events cap: enough for any test run, bounded for long sims.
    MAX_CC_EVENTS = 4096

    def _note_cc_event(self, kind: str, now: float, cwnd_before: int, flight: int) -> None:
        """Record one convicted loss and the algorithm's response."""
        if len(self.cc_events) >= self.MAX_CC_EVENTS:
            return
        cc = self.tcb.cc
        self.cc_events.append(
            {
                "time": now,
                "kind": kind,
                "cwnd_before": cwnd_before,
                "cwnd_after": cc.cwnd,
                "ssthresh_after": cc.ssthresh,
                "flight": flight,
                "mss": self.tcb.mss,
                "loss_based": getattr(cc, "loss_based", True),
            }
        )

    # ------------------------------------------------------------------
    # Segment construction helpers
    # ------------------------------------------------------------------

    #: The window field is 16 bits and this stack predates window
    #: scaling (RFC 1323), so large buffers clamp at 65535.
    _MAX_WINDOW = 0xFFFF

    def _emit(
        self,
        actions: list[TcpAction],
        seq: int,
        flags: int,
        payload: bytes = b"",
        mss: Optional[int] = None,
        retransmit: bool = False,
    ) -> None:
        """Build a segment from TCB state: the one place an unwrapped
        sequence number is masked onto the 32-bit wire circle, and the
        one place ``rcv_wnd`` becomes an advertisement (``rcv_adv``)."""
        tcb = self.tcb
        stats = self.stats
        window = tcb.config.rcv_buffer - tcb.rcv_user  # rcv_wnd, clamped:
        if window < 0:
            window = 0
        elif window > self._MAX_WINDOW:
            window = self._MAX_WINDOW
        tcb.rcv_adv = tcb.rcv_nxt + window
        segment = Segment(
            sport=tcb.local_port,
            dport=tcb.remote_port,
            seq=seq & 0xFFFFFFFF,
            ack=tcb.rcv_nxt & 0xFFFFFFFF if flags & TCP_ACK else 0,
            flags=flags,
            window=window,
            payload=payload,
            mss=mss,
        )
        stats["segments_sent"] += 1
        if payload:
            stats["bytes_sent"] += len(payload)
        if retransmit:
            stats["retransmits"] += 1
        actions.append(EmitSegment(segment, retransmit=retransmit))
        # Any segment carrying an ACK satisfies a pending delayed ACK.
        if flags & TCP_ACK and tcb.delack_pending:
            tcb.delack_pending = False
            actions.append(CancelTimer(TIMER_DELACK))

    def _emit_syn(self, actions: list[TcpAction], with_ack: bool, retransmit: bool = False) -> None:
        tcb = self.tcb
        flags = TCP_SYN | (TCP_ACK if with_ack else 0)
        self._emit(
            actions,
            seq=tcb.iss,
            flags=flags,
            mss=tcb.config.mss,
            retransmit=retransmit,
        )
        tcb.snd_nxt = max(tcb.snd_nxt, tcb.iss + 1)
        tcb.snd_max = max(tcb.snd_max, tcb.snd_nxt)

    def _emit_ack(self, actions: list[TcpAction]) -> None:
        self._emit(actions, seq=self.tcb.snd_nxt, flags=TCP_ACK)

    def _emit_rst_for(self, segment: Segment, actions: list[TcpAction]) -> None:
        """RST in response to an unacceptable segment (RFC 793 p.36)."""
        rst = reset_for(
            segment,
            self.tcb.local_port,
            self.tcb.remote_port or segment.sport,
        )
        if rst is not None:
            self.stats["segments_sent"] += 1
            actions.append(EmitSegment(rst))

    # ------------------------------------------------------------------
    # Application events
    # ------------------------------------------------------------------

    def _app_send(self, data: bytes, now: float) -> list[TcpAction]:
        tcb = self.tcb
        writable = (State.ESTABLISHED, State.CLOSE_WAIT, State.SYN_SENT, State.SYN_RCVD)
        if tcb.state not in writable:
            raise TcpError(f"send in state {tcb.state}")
        if tcb.fin_pending:
            raise TcpError("send after close")
        if len(data) > tcb.send_buffer_space:
            raise TcpError(
                f"send of {len(data)} bytes exceeds buffer space "
                f"({tcb.send_buffer_space}); callers must respect "
                "send_buffer_space"
            )
        tcb.send_buffer.extend(data)
        actions: list[TcpAction] = []
        if tcb.state in (State.ESTABLISHED, State.CLOSE_WAIT):
            self._try_output(actions, now)
        return actions

    def _app_read(self, nbytes: int, now: float) -> list[TcpAction]:
        tcb = self.tcb
        if nbytes < 0 or nbytes > tcb.rcv_user:
            raise TcpError(f"read of {nbytes} bytes; {tcb.rcv_user} delivered")
        tcb.rcv_user -= nbytes
        actions: list[TcpAction] = []
        # Receiver silly-window avoidance: only announce a window update
        # when it opens the advertised edge by >= 2 segments or half the
        # buffer (BSD's rule) — as the peer would see it: buffer freed
        # above what the window field can carry opens nothing.
        config = tcb.config
        window = config.rcv_buffer - tcb.rcv_user  # rcv_wnd, clamped:
        if window < 0:
            window = 0
        elif window > self._MAX_WINDOW:
            window = self._MAX_WINDOW
        mss = config.mss
        if tcb.peer_mss is not None and tcb.peer_mss < mss:
            mss = tcb.peer_mss
        threshold = config.rcv_buffer // 2
        if 2 * mss < threshold:
            threshold = 2 * mss
        # The arithmetic first: a state outside the set costs a hash.
        if (
            tcb.rcv_nxt + window - tcb.rcv_adv >= threshold
            and tcb.state in SYNCHRONIZED_STATES
        ):
            self._emit_ack(actions)
        return actions

    def _app_close(self, now: float) -> list[TcpAction]:
        tcb = self.tcb
        actions: list[TcpAction] = []
        if tcb.state is State.CLOSED:
            return actions
        if tcb.state is State.LISTEN:
            self._set_state(State.CLOSED)
            actions.append(NotifyClosed("done"))
            return actions
        if tcb.state is State.SYN_SENT:
            self._set_state(State.CLOSED)
            actions.append(CancelTimer(TIMER_REXMT))
            actions.append(CancelTimer(TIMER_CONN))
            actions.append(NotifyClosed("done"))
            return actions
        if tcb.fin_pending or tcb.fin_sent:
            return actions  # Already closing.
        tcb.fin_pending = True
        self._try_output(actions, now)
        return actions

    def _app_abort(self, now: float) -> list[TcpAction]:
        tcb = self.tcb
        actions: list[TcpAction] = []
        if tcb.state in SYNCHRONIZED_STATES or tcb.state is State.SYN_RCVD:
            self._emit(actions, seq=tcb.snd_nxt, flags=TCP_RST)
        self._teardown(actions, "aborted")
        return actions

    def _teardown(self, actions: list[TcpAction], reason: str) -> None:
        tcb = self.tcb
        tcb.send_buffer.clear()
        self._set_state(State.CLOSED)
        for name in (
            TIMER_REXMT,
            TIMER_PERSIST,
            TIMER_DELACK,
            TIMER_CONN,
            TIMER_TIME_WAIT,
            TIMER_KEEPALIVE,
        ):
            actions.append(CancelTimer(name))
        actions.append(NotifyClosed(reason))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _timer_expires(self, name: str, now: float) -> list[TcpAction]:
        if name == TIMER_REXMT:
            return self._on_rexmt(now)
        if name == TIMER_PERSIST:
            return self._on_persist(now)
        if name == TIMER_DELACK:
            return self._on_delack(now)
        if name == TIMER_TIME_WAIT:
            return self._on_time_wait(now)
        if name == TIMER_CONN:
            return self._on_conn_timeout(now)
        if name == TIMER_KEEPALIVE:
            return self._on_keepalive(now)
        raise TcpError(f"unknown timer {name!r}")

    def _on_rexmt(self, now: float) -> list[TcpAction]:
        tcb = self.tcb
        actions: list[TcpAction] = []
        if tcb.state is State.CLOSED or tcb.state is State.TIME_WAIT:
            return actions
        tcb.rexmt_count += 1
        if tcb.rexmt_count > tcb.config.max_retransmits:
            self._teardown(actions, "timeout")
            return actions
        tcb.rtt.on_retransmit()
        flight = tcb.flight_size
        cwnd_before = tcb.cc.cwnd
        tcb.cc.on_timeout(flight, now)
        self._note_cc_event("timeout", now, cwnd_before, flight)
        self._retransmit_head(actions, now)
        actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))
        return actions

    def _retransmit_head(self, actions: list[TcpAction], now: float) -> None:
        """Resend whatever sits at snd_una: SYN, data, or FIN."""
        tcb = self.tcb
        offset = tcb.snd_una - tcb.buf_base
        if offset < 0 or tcb.state in (State.SYN_SENT, State.SYN_RCVD):
            # snd_una still covers our SYN (outside the handshake states
            # that shouldn't happen, but be safe).
            self._emit_syn(actions, tcb.state is not State.SYN_SENT, retransmit=True)
            return
        chunk = bytes(tcb.send_buffer[offset : offset + tcb.mss])
        if chunk:
            flags = TCP_ACK
            end = tcb.snd_una + len(chunk)
            fin_too = (
                tcb.fin_sent
                and tcb.fin_seq is not None
                and end == tcb.fin_seq
                and offset + len(chunk) == len(tcb.send_buffer)
            )
            if fin_too:
                flags |= TCP_FIN  # Piggyback the FIN retransmission.
                end += 1
            self._emit(actions, seq=tcb.snd_una, flags=flags, payload=chunk, retransmit=True)
            # The retransmission may coalesce bytes never sent before
            # (small writes that arrived after the original segment);
            # sequence bookkeeping must cover them.
            tcb.snd_nxt = max(tcb.snd_nxt, end)
            tcb.snd_max = max(tcb.snd_max, end)
        elif tcb.fin_sent and tcb.fin_seq is not None:
            self._emit(actions, seq=tcb.fin_seq, flags=TCP_FIN | TCP_ACK, retransmit=True)
        else:
            # Nothing outstanding; pure ACK keeps the peer in sync.
            self._emit_ack(actions)

    def _on_persist(self, now: float) -> list[TcpAction]:
        tcb = self.tcb
        actions: list[TcpAction] = []
        if tcb.state not in (State.ESTABLISHED, State.CLOSE_WAIT, State.FIN_WAIT_1, State.CLOSING):
            return actions
        if tcb.snd_wnd > 0:
            tcb.persist_shift = 0
            self._try_output(actions, now)
            return actions
        # Send a one-byte window probe beyond the zero window.
        offset = tcb.snd_nxt - tcb.buf_base
        if 0 <= offset < len(tcb.send_buffer):
            probe = bytes(tcb.send_buffer[offset : offset + 1])
            self.stats["probes_sent"] += 1
            self._emit(actions, seq=tcb.snd_nxt, flags=TCP_ACK, payload=probe)
            tcb.snd_nxt += 1
            tcb.snd_max = max(tcb.snd_max, tcb.snd_nxt)
        elif tcb.fin_pending and not tcb.fin_sent and tcb.unsent_bytes == 0:
            # The only thing left to probe with is the FIN itself.
            self._send_fin(actions)
        tcb.persist_shift = min(tcb.persist_shift + 1, 6)
        actions.append(SetTimer(TIMER_PERSIST, self._persist_interval()))
        return actions

    def _persist_interval(self) -> float:
        base = max(self.tcb.rtt.rto, 1.0)
        return min(base * (1 << self.tcb.persist_shift), 60.0)

    def _on_delack(self, now: float) -> list[TcpAction]:
        tcb = self.tcb
        actions: list[TcpAction] = []
        if tcb.delack_pending and tcb.state in SYNCHRONIZED_STATES:
            tcb.delack_pending = False
            self._emit_ack(actions)
        return actions

    def _on_time_wait(self, now: float) -> list[TcpAction]:
        actions: list[TcpAction] = []
        if self.tcb.state is State.TIME_WAIT:
            self._set_state(State.CLOSED)
            actions.append(NotifyClosed("done"))
        return actions

    def _on_conn_timeout(self, now: float) -> list[TcpAction]:
        actions: list[TcpAction] = []
        if self.tcb.state in (State.SYN_SENT, State.SYN_RCVD):
            self._teardown(actions, "timeout")
        return actions

    def _arm_keepalive(self, actions: list[TcpAction]) -> None:
        if self.tcb.config.keepalive:
            actions.append(SetTimer(TIMER_KEEPALIVE, self.tcb.config.keepalive_idle))

    def _on_keepalive(self, now: float) -> list[TcpAction]:
        """BSD keepalive: probe an idle connection with a segment one
        byte below snd_una; a live peer answers with an ACK."""
        tcb = self.tcb
        actions: list[TcpAction] = []
        if not tcb.config.keepalive or tcb.state is not State.ESTABLISHED:
            return actions
        idle = now - tcb.last_heard
        remaining = tcb.config.keepalive_idle - idle
        # The epsilon guards against a zero-delay re-arm loop when float
        # subtraction leaves the idle time infinitesimally short.
        if remaining > 1e-6 and tcb.keepalive_count == 0:
            # Activity since arming: re-arm for the remaining idle time.
            actions.append(SetTimer(TIMER_KEEPALIVE, remaining))
            return actions
        if tcb.keepalive_count >= tcb.config.keepalive_probes:
            self._teardown(actions, "timeout")
            return actions
        tcb.keepalive_count += 1
        self.stats["probes_sent"] += 1
        # The classic garbage-seq probe: seq = snd_una - 1, no data.
        self._emit(actions, seq=tcb.snd_una - 1, flags=TCP_ACK)
        actions.append(SetTimer(TIMER_KEEPALIVE, tcb.config.keepalive_interval))
        return actions

    # ------------------------------------------------------------------
    # Segment arrival: RFC 793 pp. 64-76
    # ------------------------------------------------------------------

    def _segment_arrives(self, segment: Segment, now: float) -> list[TcpAction]:
        """Dispatch on state, lifting ``seq``/``ack`` off the 32-bit
        circle on the way in: ``ack`` to the value nearest ``snd_una``,
        ``seq`` to the one nearest ``rcv_nxt`` — except a SYN's, which
        *founds* the receive sequence space and is taken as it reads."""
        tcb = self.tcb
        tcb.last_heard = now
        tcb.keepalive_count = 0
        state = tcb.state
        if state is State.CLOSED:
            actions: list[TcpAction] = []
            self._emit_rst_for(segment, actions)
            return actions
        if state is State.LISTEN:
            return self._arrives_listen(segment, now)
        ack = unwrap(segment.ack, tcb.snd_una)
        if state is State.SYN_SENT:
            return self._arrives_syn_sent(segment, ack, now)
        seq = unwrap(segment.seq, tcb.rcv_nxt)
        return self._arrives_synchronized(segment, seq, ack, now)

    def _arrives_listen(self, segment: Segment, now: float) -> list[TcpAction]:
        tcb = self.tcb
        actions: list[TcpAction] = []
        if segment.rst:
            return actions
        if segment.has_ack:
            self._emit_rst_for(segment, actions)
            return actions
        if not segment.syn:
            return actions
        # Passive open proceeds.
        tcb.remote_port = segment.sport if tcb.remote_port == 0 else tcb.remote_port
        tcb.irs = segment.seq
        tcb.rcv_nxt = segment.seq + 1
        tcb.rcv_adv = tcb.rcv_nxt
        tcb.peer_mss = segment.mss
        tcb.cc.set_mss(tcb.mss)
        tcb.snd_wnd = segment.window
        tcb.snd_wl1 = segment.seq
        tcb.snd_wl2 = tcb.iss
        tcb.snd_una = tcb.snd_nxt = tcb.snd_max = tcb.iss
        tcb.buf_base = tcb.iss + 1
        self._set_state(State.SYN_RCVD)
        self._emit_syn(actions, with_ack=True)
        actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))
        actions.append(SetTimer(TIMER_CONN, tcb.config.conn_timeout))
        return actions

    def _arrives_syn_sent(self, segment: Segment, ack: int, now: float) -> list[TcpAction]:
        tcb = self.tcb
        actions: list[TcpAction] = []
        ack_acceptable = False
        if segment.has_ack:
            if not tcb.iss < ack <= tcb.snd_nxt:
                self._emit_rst_for(segment, actions)
                return actions
            ack_acceptable = True
        if segment.rst:
            if ack_acceptable:
                self._teardown(actions, "refused")
            return actions
        if not segment.syn:
            return actions

        tcb.irs = segment.seq
        tcb.rcv_nxt = segment.seq + 1
        tcb.rcv_adv = tcb.rcv_nxt
        tcb.peer_mss = segment.mss
        tcb.cc.set_mss(tcb.mss)
        if segment.has_ack:
            self._ack_advances(ack, actions, now)
        tcb.snd_wnd = segment.window
        tcb.snd_wl1 = segment.seq
        tcb.snd_wl2 = ack
        if tcb.snd_una > tcb.iss:
            # Our SYN is acknowledged: connection established.
            self._set_state(State.ESTABLISHED)
            actions.append(CancelTimer(TIMER_REXMT))
            actions.append(CancelTimer(TIMER_CONN))
            actions.append(NotifyConnected())
            self._arm_keepalive(actions)
            self._emit_ack(actions)
            self._try_output(actions, now)
        else:
            # Simultaneous open.
            self._set_state(State.SYN_RCVD)
            self._emit_syn(actions, with_ack=True, retransmit=True)
        return actions

    def _acceptable(self, seq: int, seg_len: int) -> bool:
        """RFC 793 p.69 sequence acceptability test."""
        tcb = self.tcb
        wnd = tcb.config.rcv_buffer - tcb.rcv_user  # rcv_wnd
        if wnd < 0:
            wnd = 0
        if seg_len == 0 and wnd == 0:
            return seq == tcb.rcv_nxt
        edge = tcb.rcv_nxt + wnd
        if seg_len == 0:
            return tcb.rcv_nxt <= seq < edge
        if wnd == 0:
            return False
        return tcb.rcv_nxt <= seq < edge or tcb.rcv_nxt <= seq + seg_len - 1 < edge

    def _arrives_synchronized(
        self, segment: Segment, seq: int, ack: int, now: float
    ) -> list[TcpAction]:
        tcb = self.tcb
        actions: list[TcpAction] = []
        flags = segment.flags
        payload = segment.payload
        size = len(payload)

        # Step 1: sequence acceptability (SYN and FIN occupy a slot).
        seg_len = size + (1 if flags & TCP_SYN else 0) + (1 if flags & TCP_FIN else 0)
        if not self._acceptable(seq, seg_len):
            if not flags & TCP_RST:
                self._emit_ack(actions)
            return actions

        # Step 2: RST processing.
        if flags & TCP_RST:
            if tcb.state is State.SYN_RCVD:
                self._teardown(actions, "refused")
            else:
                self._teardown(actions, "reset")
            return actions

        # Step 4: SYN in window is an error.
        if flags & TCP_SYN and seq >= tcb.rcv_nxt:
            self._emit(actions, seq=tcb.snd_nxt, flags=TCP_RST)
            self._teardown(actions, "reset")
            return actions

        # Step 5: ACK processing.
        if not flags & TCP_ACK:
            return actions

        if tcb.state is State.SYN_RCVD:
            if tcb.snd_una <= ack <= tcb.snd_nxt:
                self._set_state(State.ESTABLISHED)
                actions.append(CancelTimer(TIMER_CONN))
                actions.append(NotifyConnected())
                self._arm_keepalive(actions)
                tcb.snd_wnd = segment.window
                tcb.snd_wl1 = seq
                tcb.snd_wl2 = ack
            else:
                self._emit_rst_for(segment, actions)
                return actions

        if ack > tcb.snd_max:
            # ACK for data never sent.
            self._emit_ack(actions)
            return actions

        if ack > tcb.snd_una:
            self._ack_advances(ack, actions, now)
        elif (
            ack == tcb.snd_una
            and not size
            and segment.window == tcb.snd_wnd
            and tcb.snd_nxt > tcb.snd_una  # flight_size > 0
        ):
            self.stats["dup_acks_received"] += 1
            flight = tcb.flight_size
            cwnd_before = tcb.cc.cwnd
            if tcb.cc.on_duplicate_ack(flight, now):
                self.stats["fast_retransmits"] += 1
                self._note_cc_event("fast_retransmit", now, cwnd_before, flight)
                tcb.rtt.cancel_timing()  # Karn: retransmitted data.
                self._retransmit_head(actions, now)
                actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))

        # Window update (RFC 793 p.72).
        if tcb.snd_wl1 < seq or (tcb.snd_wl1 == seq and tcb.snd_wl2 <= ack):
            old_wnd = tcb.snd_wnd
            tcb.snd_wnd = segment.window
            tcb.snd_wl1 = seq
            tcb.snd_wl2 = ack
            if old_wnd == 0 and tcb.snd_wnd > 0:
                tcb.persist_shift = 0
                actions.append(CancelTimer(TIMER_PERSIST))

        # FIN-driven state machine advances that depend on our FIN being
        # acknowledged are handled inside _ack_advances.

        # Step 7: payload processing.
        if size and tcb.state in (
            State.ESTABLISHED,
            State.FIN_WAIT_1,
            State.FIN_WAIT_2,
        ):
            self._process_payload(seq, payload, actions)

        # Step 8: FIN processing.
        if flags & TCP_FIN:
            self._process_fin(seq + size, actions)

        # Try to move data (window may have opened, ACK freed buffer...).
        self._try_output(actions, now)
        return actions

    # ------------------------------------------------------------------
    # ACK bookkeeping
    # ------------------------------------------------------------------

    def _ack_advances(self, ack: int, actions: list[TcpAction], now: float) -> None:
        """Process a cumulative ACK advancing snd_una to ``ack``."""
        tcb = self.tcb
        acked = ack - tcb.snd_una
        if acked <= 0:
            return
        rtt_sample = tcb.rtt.on_ack(ack, now)
        if rtt_sample is not None:
            tcb.cc.on_rtt_sample(rtt_sample, now)
        left = tcb.snd_nxt - ack  # flight_size once snd_una moves
        tcb.cc.on_new_ack(acked, now, left if left > 0 else 0)
        tcb.snd_una = ack
        tcb.rexmt_count = 0

        # Drop acknowledged bytes from the send buffer.
        drop = ack - tcb.buf_base
        if drop > 0 and tcb.send_buffer:
            drop = min(drop, len(tcb.send_buffer))
            del tcb.send_buffer[:drop]
            tcb.buf_base += drop
            actions.append(SendSpaceAvailable(drop))

        if left < 0:
            tcb.snd_nxt = ack

        # Retransmission timer: restart while data remains outstanding.
        if left > 0:
            actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))
        else:
            actions.append(CancelTimer(TIMER_REXMT))

        # Our FIN acknowledged?
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

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _process_payload(self, seq: int, payload, actions: list[TcpAction]) -> None:
        tcb = self.tcb
        if seq != tcb.rcv_nxt:
            # Out of order: queue it and ACK immediately so the sender
            # sees duplicate ACKs (fast-retransmit trigger).
            tcb.reassembly.insert(seq, payload, tcb.rcv_nxt)
            self._emit_ack(actions)
            return
        # Trim to the advertised window before accepting.
        payload = payload[: tcb.rcv_wnd]
        if not payload:
            self._emit_ack(actions)
            return
        data = payload
        if tcb.reassembly.runs:
            tcb.reassembly.insert(seq, payload, tcb.rcv_nxt)
            data = tcb.reassembly.extract(tcb.rcv_nxt)
        # (An empty queue's insert/extract round trip returns
        # ``payload`` itself.)
        size = len(data)
        tcb.rcv_nxt += size
        tcb.rcv_user += size
        self.stats["bytes_delivered"] += size
        actions.append(DeliverData(data))
        # Delayed ACK: every second segment, or after delack_time.
        if tcb.delack_pending:
            tcb.delack_pending = False
            actions.append(CancelTimer(TIMER_DELACK))
            self._emit_ack(actions)
        else:
            tcb.delack_pending = True
            self.stats["acks_delayed"] += 1
            actions.append(SetTimer(TIMER_DELACK, tcb.config.delack_time))

    def _process_fin(self, fin_seq: int, actions: list[TcpAction]) -> None:
        tcb = self.tcb
        if tcb.state in (State.CLOSED, State.LISTEN, State.SYN_SENT):
            return
        if tcb.rcv_nxt != fin_seq:
            return  # Data before the FIN is still missing; don't advance.
        if not tcb.fin_rcvd:
            tcb.fin_rcvd = True
            tcb.rcv_nxt += 1
            actions.append(DeliverFin())
        self._emit_ack(actions)
        if tcb.state is State.ESTABLISHED:
            self._set_state(State.CLOSE_WAIT)
        elif tcb.state is State.FIN_WAIT_1:
            # Our FIN not yet acked (else we'd be in FIN_WAIT_2).
            self._set_state(State.CLOSING)
        elif tcb.state is State.FIN_WAIT_2:
            self._enter_time_wait(actions)
        elif tcb.state is State.TIME_WAIT:
            actions.append(SetTimer(TIMER_TIME_WAIT, 2 * tcb.config.msl))

    def _enter_time_wait(self, actions: list[TcpAction]) -> None:
        self._set_state(State.TIME_WAIT)
        for name in (TIMER_REXMT, TIMER_PERSIST, TIMER_DELACK, TIMER_KEEPALIVE):
            actions.append(CancelTimer(name))
        actions.append(SetTimer(TIMER_TIME_WAIT, 2 * self.tcb.config.msl))

    # ------------------------------------------------------------------
    # Output engine (tcp_output)
    # ------------------------------------------------------------------

    def _try_output(self, actions: list[TcpAction], now: float) -> None:
        """Send what the windows, Nagle and sender SWS avoidance allow.
        ``Tcb.mss`` and ``send_window`` hold still for a pass and are
        read once; ``flight`` / ``unsent`` are ``Tcb.flight_size`` /
        ``unsent_bytes`` in plain arithmetic (the properties are their
        oracle: tests/protocols/test_tcp_inlined_arithmetic.py)."""
        tcb = self.tcb
        if tcb.state not in (
            State.ESTABLISHED,
            State.CLOSE_WAIT,
            State.FIN_WAIT_1,
            State.CLOSING,
            State.LAST_ACK,
            State.SYN_RCVD,
        ):
            return
        buffer = tcb.send_buffer
        fin_due = tcb.fin_pending and not tcb.fin_sent
        if not buffer and not fin_due:
            return  # Nothing to send and nothing to persist for.
        config = tcb.config
        mss = config.mss
        if tcb.peer_mss is not None and tcb.peer_mss < mss:
            mss = tcb.peer_mss
        window = tcb.cc.window
        if tcb.snd_wnd < window:
            window = tcb.snd_wnd
        buffered = len(buffer)
        sent_any = False
        while True:
            nxt = tcb.snd_nxt
            flight = nxt - tcb.snd_una
            if flight < 0:
                flight = 0
            usable = window - flight
            offset = sent = nxt - tcb.buf_base
            if tcb.fin_sent and tcb.fin_seq is not None and nxt > tcb.fin_seq:
                sent -= 1  # Exclude the FIN's sequence slot.
            if sent < 0:
                sent = 0
            elif sent > buffered:
                sent = buffered
            unsent = buffered - sent
            length = mss if mss < unsent else unsent
            if usable < length:
                length = usable
            if length <= 0:
                break
            # Sender silly-window avoidance + Nagle (BSD tcp_output
            # rules): a short segment goes only if it is all we have
            # and the line is idle (or Nagle is off), or if it is a
            # decent fraction of the peer's buffer.
            if (
                length < mss
                and not (length == unsent and (flight == 0 or not config.nagle))
                and length * 2 < config.rcv_buffer
            ):
                break
            chunk = bytes(buffer[offset : offset + length])
            flags = TCP_ACK
            is_last = offset + length == buffered
            if is_last:
                flags |= TCP_PSH
            # The FIN rides along if its sequence slot fits too.
            fin_now = fin_due and is_last and usable > length
            if fin_now:
                flags |= TCP_FIN
            self._emit(actions, seq=nxt, flags=flags, payload=chunk)
            tcb.rtt.start_timing(nxt + length, now)  # No-op while timing.
            nxt += length + (1 if fin_now else 0)
            tcb.snd_nxt = nxt
            if tcb.snd_max < nxt:
                tcb.snd_max = nxt
            if fin_now:
                self._mark_fin_sent(nxt - 1)
                fin_due = False
            sent_any = True

        # A FIN with no data left to carry it.  (``flight`` / ``unsent``
        # are current: the iteration that broke out sent nothing.)
        if fin_due and unsent == 0 and flight < window + 1:
            self._send_fin(actions)
            sent_any = True

        if sent_any:
            actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))
        elif tcb.snd_wnd == 0 and flight == 0 and (unsent > 0 or fin_due):
            # Zero window with data waiting: persist.
            actions.append(SetTimer(TIMER_PERSIST, self._persist_interval()))

    def _send_fin(self, actions: list[TcpAction]) -> None:
        tcb = self.tcb
        self._emit(actions, seq=tcb.snd_nxt, flags=TCP_FIN | TCP_ACK)
        self._mark_fin_sent(tcb.snd_nxt)
        tcb.snd_nxt += 1
        tcb.snd_max = max(tcb.snd_max, tcb.snd_nxt)
        actions.append(SetTimer(TIMER_REXMT, tcb.rtt.rto))

    def _mark_fin_sent(self, fin_seq: int) -> None:
        tcb = self.tcb
        tcb.fin_sent = True
        tcb.fin_seq = fin_seq
        if tcb.state in (State.ESTABLISHED, State.SYN_RCVD):
            self._set_state(State.FIN_WAIT_1)
        elif tcb.state is State.CLOSE_WAIT:
            self._set_state(State.LAST_ACK)
