"""Deterministic call ceiling for the TCP machine alone.

Beside ``tests/net/test_byte_path_cost.py`` (the byte work of a packet),
this pins *profiled calls* — the ledger's ``py_calls_per_op`` currency —
for the protocol work of a steady-state transfer with no simulator and
no codec: ``Segment`` objects pass from one ``TcpMachine`` straight to
the other, so only ``protocols/tcp`` is under the profiler and a
property chain creeping back into ``_try_output`` / ``_emit`` /
``fast_input`` fails tier-1 instead of waiting for a ledger run.
"""

from repro.protocols.tcp import (
    AppRead,
    AppSend,
    DeliverData,
    EmitSegment,
    SegmentArrives,
    State,
    TcpMachine,
)

from ..net.test_data_path_cost import profiled_calls

WRITE = bytes(range(256)) * 16  # 4096 bytes: 1460 + 1460 + 1176.


class Wire:
    """Two established machines and a clock; ``write`` is one period of
    the steady state."""

    def __init__(self) -> None:
        self.a = TcpMachine(5000, 80, iss=1000)
        self.b = TcpMachine(80, 5000, iss=9_000_000)
        self.now = 0.0
        self.fast = self.slow = 0
        self.b.open(self.now, active=False)
        self._carry(self.a, self.b, self.a.open(self.now, active=True))
        assert self.a.state is self.b.state is State.ESTABLISHED

    def _carry(self, owner, peer, actions) -> None:
        """Execute ``owner``'s actions: every emitted segment goes to
        the peer — header prediction first, as
        ``MachineRunner.feed_segment`` does — whose answers come back
        the same way; delivered data is read at once."""
        for action in actions:
            kind = action.__class__
            if kind is EmitSegment:
                self.now += 0.001
                answers = peer.fast_input(action.segment, self.now)
                if answers is None:
                    self.slow += 1
                    answers = peer.handle(SegmentArrives(action.segment), self.now)
                else:
                    self.fast += 1
                self._carry(peer, owner, answers)
            elif kind is DeliverData:
                self._carry(owner, peer, owner.handle(AppRead(len(action.data)), self.now))

    def write(self) -> None:
        """Two 4096-byte writes: six data segments into B's fast path
        and six reads; four ACKs back into A's (two delayed ACKs, two
        window updates) — one period of the pattern."""
        for _ in range(2):
            self._carry(self.a, self.b, self.a.handle(AppSend(WRITE), self.now))

    def echo(self) -> None:
        """A writes one byte; B reads it and echoes it; A reads the
        echo — the paper's Table 3 round trip.  Each data segment also
        ACKs the last one sent the other way."""
        self._carry(self.a, self.b, self.a.handle(AppSend(b"p"), self.now))
        self._carry(self.b, self.a, self.b.handle(AppSend(b"p"), self.now))


def test_steady_state_transfer_machine_call_gate():
    """One period of a steady-state transfer — two 4096-byte ``AppSend``
    → six segments → the peer's ``fast_input`` and ``AppRead`` → four
    ACKs → the sender's ``fast_input`` — costs 252 profiled calls, the
    harness included.  It cost 256 while ``_app_send`` read the send
    room through the ``Tcb.send_buffer_space`` property; 294 while
    every segment, event and action was a frozen dataclass built
    through ``__init__``; and 806
    while every turn of ``_try_output``'s loop re-derived flight,
    window, unsent and MSS through the ``Tcb`` property chain, ``handle`` walked an
    ``isinstance`` ladder, ``_app_read`` hashed the state enum and
    ``unwrap`` called ``seq_diff``.
    """
    wire = Wire()
    for _ in range(16):  # Until the congestion window stops growing.
        wire.write()
    wire.fast = wire.slow = 0
    before = wire.b.stats["bytes_delivered"]
    first = profiled_calls(wire.write)
    assert wire.b.stats["bytes_delivered"] - before == 2 * len(WRITE)
    assert (wire.fast, wire.slow) == (10, 0)  # Every segment predicted.
    assert profiled_calls(wire.write) == first  # A period: the count repeats.
    assert first <= 256


def test_echo_round_trip_machine_call_gate():
    """One period of a request/response exchange — A writes one byte,
    B reads and echoes it, A reads the echo — costs 94 profiled calls,
    both data segments predicted.  It cost 124 while header prediction
    took data only when its ACK advanced nothing: each segment of an
    echo ACKs the last one sent the other way, so both missed into the
    general input path.
    """
    wire = Wire()
    for _ in range(4):
        wire.echo()
    wire.fast = wire.slow = 0
    before = wire.a.stats["bytes_delivered"]
    first = profiled_calls(wire.echo)
    assert wire.a.stats["bytes_delivered"] - before == 1
    assert (wire.fast, wire.slow) == (2, 0)  # Both data segments predicted.
    assert profiled_calls(wire.echo) == first  # A period: the count repeats.
    assert first <= 94
