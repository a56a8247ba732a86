"""The transmission control block: all per-connection state."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .cc import CongestionAlgorithm, make_cc
from .reassembly import ReassemblyQueue
from .rto import RttEstimator


class State(enum.Enum):
    """RFC 793 connection states."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN-SENT"
    SYN_RCVD = "SYN-RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN-WAIT-1"
    FIN_WAIT_2 = "FIN-WAIT-2"
    CLOSE_WAIT = "CLOSE-WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST-ACK"
    TIME_WAIT = "TIME-WAIT"


#: States in which the connection is usable for data transfer: every
#: one past the handshake.
SYNCHRONIZED_STATES = frozenset(State) - {
    State.CLOSED, State.LISTEN, State.SYN_SENT, State.SYN_RCVD
}


@dataclass(frozen=True)
class TcpConfig:
    """Tuning knobs for one connection."""

    #: Maximum segment size we announce and default to.
    mss: int = 1460
    #: Receive buffer (and therefore maximum advertised window).
    rcv_buffer: int = 16384
    #: Send buffer capacity.
    snd_buffer: int = 16384
    #: Maximum segment lifetime; TIME-WAIT holds 2*msl.  The paper-era
    #: BSD default was 30 s.
    msl: float = 30.0
    #: Delayed-ACK interval (BSD fast timeout: 200 ms).
    delack_time: float = 0.2
    #: Connection-establishment timeout (BSD: 75 s).
    conn_timeout: float = 75.0
    #: Give up after this many consecutive retransmissions of one point.
    max_retransmits: int = 12
    #: Nagle's algorithm (coalescing of small writes).
    nagle: bool = True
    #: Keepalive probing of idle connections (BSD SO_KEEPALIVE).
    keepalive: bool = False
    #: Idle time before the first keepalive probe (BSD: 2 hours).
    keepalive_idle: float = 7200.0
    #: Interval between unanswered probes (BSD: 75 s).
    keepalive_interval: float = 75.0
    #: Unanswered probes before the connection is dropped (BSD: 8).
    keepalive_probes: int = 8
    #: Congestion-control algorithm, by registry name: "reno", "tahoe",
    #: "cubic", or "bbr" (see :mod:`repro.protocols.tcp.cc`).
    cc: str = "reno"
    #: Duplicate ACKs before fast retransmit.  3 is the conformant BSD
    #: value; other values exist so the conformance campaign can seed a
    #: deliberately broken stack and prove the invariant checkers fire.
    dup_ack_threshold: int = 3
    #: Minimum/initial RTO bounds (seconds).  The floor must exceed the
    #: peer's delayed-ACK interval or every delayed ACK races the
    #: retransmission timer (BSD kept a >= 0.5 s floor for this reason).
    min_rto: float = 0.5
    initial_rto: float = 1.0
    max_rto: float = 64.0


@dataclass
class Tcb:
    """Connection state per RFC 793 plus BSD additions.

    Variable names follow the RFC: ``snd_una``/``snd_nxt``/``snd_wnd``
    for the send side, ``rcv_nxt``/``rcv_wnd`` for the receive side.
    Sequence numbers are held *unwrapped* — plain integers that start
    at the ISS (or the peer's, as its SYN reads) and grow past 2**32 —
    so they compare with ``<`` and subtract with ``-``; the 32-bit
    circle is the wire's business (:mod:`.seq`).
    """

    local_port: int
    remote_port: int
    config: TcpConfig
    iss: int = 0

    state: State = State.CLOSED

    # Send sequence space.
    snd_una: int = 0
    snd_nxt: int = 0
    snd_wnd: int = 0
    snd_wl1: int = 0  # Segment seq used for the last window update.
    snd_wl2: int = 0  # Segment ack used for the last window update.
    snd_max: int = 0  # Highest sequence sent (for retransmit bookkeeping).

    # Receive sequence space.
    irs: int = 0
    rcv_nxt: int = 0

    # Buffers.
    send_buffer: bytearray = field(default_factory=bytearray)
    #: Sequence number of send_buffer[0].  SYN and FIN occupy sequence
    #: space but no buffer space, so this is tracked explicitly (it is
    #: iss+1 once the SYN is sent, then advances as ACKs drain data).
    buf_base: int = 0
    reassembly: ReassemblyQueue = field(default_factory=ReassemblyQueue)
    #: Bytes delivered to the app but not yet consumed (shrinks rcv_wnd).
    rcv_user: int = 0
    #: Window the peer last saw us advertise.
    rcv_adv: int = 0

    # Negotiated values.
    peer_mss: Optional[int] = None

    # Helpers.
    rtt: RttEstimator = field(default_factory=RttEstimator)
    cc: CongestionAlgorithm = None  # type: ignore[assignment]

    # Flags.
    fin_pending: bool = False  # App closed; FIN not yet sent.
    fin_sent: bool = False
    fin_seq: Optional[int] = None  # Sequence number our FIN occupies.
    fin_rcvd: bool = False
    delack_pending: bool = False
    rexmt_count: int = 0
    #: Persist-timer backoff exponent.
    persist_shift: int = 0
    #: Time of the last segment heard from the peer (keepalive idle).
    last_heard: float = 0.0
    #: Consecutive unanswered keepalive probes.
    keepalive_count: int = 0

    def __post_init__(self) -> None:
        if self.cc is None:
            self.cc = make_cc(
                self.config.cc,
                mss=self.config.mss,
                dup_threshold=self.config.dup_ack_threshold,
            )
        self.rtt.min_rto = self.config.min_rto
        self.rtt.initial_rto = self.config.initial_rto
        self.rtt.max_rto = self.config.max_rto

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def mss(self) -> int:
        """Effective segment size: min of ours and the peer's."""
        if self.peer_mss is None:
            return self.config.mss
        return min(self.config.mss, self.peer_mss)

    @property
    def rcv_wnd(self) -> int:
        """Receive window we can advertise right now.

        Out-of-order bytes on the reassembly queue deliberately do *not*
        shrink the window (4.3BSD computes the window from socket-buffer
        space alone): if they did, every duplicate ACK would carry a
        different window and the peer's fast-retransmit dup-ACK test
        (``len == 0 and win == snd_wnd``) could never fire.
        """
        return max(0, self.config.rcv_buffer - self.rcv_user)

    @property
    def flight_size(self) -> int:
        """Unacknowledged bytes in the network."""
        return max(0, self.snd_nxt - self.snd_una)

    @property
    def send_window(self) -> int:
        """Usable window: min(peer window, congestion window)."""
        return min(self.snd_wnd, self.cc.window)

    @property
    def send_buffer_space(self) -> int:
        """Room left for application writes."""
        return max(0, self.config.snd_buffer - len(self.send_buffer))

    @property
    def sent_data_bytes(self) -> int:
        """Buffered bytes already transmitted at least once."""
        sent = self.snd_nxt - self.buf_base
        if self.fin_sent and self.fin_seq is not None:
            if self.snd_nxt > self.fin_seq:
                sent -= 1  # Exclude the FIN's sequence slot.
        return min(max(0, sent), len(self.send_buffer))

    @property
    def unsent_bytes(self) -> int:
        """Buffered bytes not yet transmitted the first time."""
        return len(self.send_buffer) - self.sent_data_bytes
