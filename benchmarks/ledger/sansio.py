"""Two ``TcpMachine``s joined by a heap of deliveries and timers.

The control workload: no ``repro.sim``, no host model, no NIC or link.
Every segment goes machine -> ``TcpSegmentEncoder.encode`` -> flat bytes
-> ``decode_segment(verify=True)`` -> machine, so ``protocols.tcp`` and
``net.buf`` (checksum, headers, chain fusion) do all the work and a
change under ``sim/``, ``mach/``, ``netio/`` or ``org/`` cannot move it.
"""

from __future__ import annotations

import hashlib
import heapq

from repro.protocols.tcp import (
    AppClose,
    AppRead,
    AppSend,
    CancelTimer,
    DeliverData,
    DeliverFin,
    EmitSegment,
    NotifyClosed,
    NotifyConnected,
    SegmentArrives,
    SendSpaceAvailable,
    SetTimer,
    TcpConfig,
    TcpMachine,
    TcpSegmentEncoder,
    TimerExpires,
    decode_segment,
)

IP_A, IP_B = 0x0A000001, 0x0A000002
PORT_A, PORT_B = 5000, 80
#: One-way wire delay, and the extra a reordered segment waits: long
#: enough that the rest of its 16 KB window overtakes it.
DELAY, REORDER_EXTRA = 500e-6, 2e-3
#: Shares of the data direction's segments that are lost, and delayed.
DROP, REORDER = 0.01, 0.005
WRITE_SIZE = 4096
_DELIVER, _TIMER = 0, 1


class _End:
    """One machine with its encoder and timer generations."""

    def __init__(self, machine: TcpMachine, ip: int, peer_ip: int, peer_port: int) -> None:
        self.machine = machine
        self.ip = ip
        self.peer_ip = peer_ip
        self.encoder = TcpSegmentEncoder(
            machine.tcb.local_port, peer_port, ip, peer_ip
        )
        self.timer_gen: dict[str, int] = {}
        self.closed_reason = None
        self.peer: "_End" = self


class SansioPair:
    """A sends ``payload`` to B one way, then both close.

    ``faults`` yields one float in [0, 1) per segment on the data
    direction (A -> B): below ``DROP`` the segment is lost, below
    ``DROP + REORDER`` it is delayed past its successors.
    """

    def __init__(self, payload: bytes, faults) -> None:
        config = TcpConfig(msl=0.5)
        self.a = _End(TcpMachine(PORT_A, PORT_B, config=config, iss=1000), IP_A, IP_B, PORT_B)
        self.b = _End(TcpMachine(PORT_B, 0, config=config, iss=9_000_000), IP_B, IP_A, PORT_A)
        self.a.peer, self.b.peer = self.b, self.a
        self.payload = memoryview(payload)
        self.cursor = 0
        self.close_sent = False
        self.faults = faults
        self.now = 0.0
        self.heap: list = []
        self.pushes = 0
        self.received = hashlib.sha256()
        self.received_bytes = 0
        self.dropped = self.reordered = 0

    def run(self) -> None:
        """Handshake, transfer, close; returns when the heap is empty."""
        self._do(self.b, self.b.machine.open(self.now, active=False))
        self._do(self.a, self.a.machine.open(self.now, active=True))
        heap = self.heap
        while heap:
            at, _, kind, end, item = heapq.heappop(heap)
            machine = end.machine
            if kind == _DELIVER:
                self.now = at
                segment = decode_segment(item, end.peer_ip, end.ip, verify=True)
                actions = machine.fast_input(segment, self.now)
                if actions is None:
                    actions = machine.handle(SegmentArrives(segment), self.now)
            else:
                name, generation = item
                if end.timer_gen.get(name) != generation:
                    continue  # Cancelled or re-armed since.
                end.timer_gen[name] = generation + 1
                self.now = at
                actions = machine.handle(TimerExpires(name), self.now)
            self._do(end, actions)

    def _push(self, at: float, kind: int, end: _End, item) -> None:
        self.pushes += 1
        heapq.heappush(self.heap, (at, self.pushes, kind, end, item))

    def _do(self, end: _End, actions) -> None:
        """Execute one action list, then let the applications react.

        The reactions (read, close, write more) feed the machine again,
        so they wait until the whole list is applied: a ``SetTimer``
        from a nested write must not be undone by a ``CancelTimer``
        later in the list that triggered it.
        """
        consumed = 0
        got_fin = pump = False
        for action in actions:
            if isinstance(action, EmitSegment):
                self._transmit(end, action.segment)
            elif isinstance(action, SetTimer):
                generation = end.timer_gen.get(action.name, 0) + 1
                end.timer_gen[action.name] = generation
                self._push(self.now + action.delay, _TIMER, end, (action.name, generation))
            elif isinstance(action, CancelTimer):
                end.timer_gen[action.name] = end.timer_gen.get(action.name, 0) + 1
            elif isinstance(action, DeliverData):
                self.received.update(action.data)
                consumed += len(action.data)
            elif isinstance(action, DeliverFin):
                got_fin = True
            elif isinstance(action, (NotifyConnected, SendSpaceAvailable)):
                pump = end is self.a
            elif isinstance(action, NotifyClosed):
                end.closed_reason = action.reason
            else:
                raise AssertionError(f"unhandled action {action!r}")
        if consumed:
            self.received_bytes += consumed
            self._do(end, end.machine.handle(AppRead(consumed), self.now))
        if got_fin:
            self._do(end, end.machine.handle(AppClose(), self.now))
        if pump:
            self._pump()

    def _pump(self) -> None:
        """The sending application: fill the send buffer, close at the end."""
        a = self.a
        total = len(self.payload)
        while self.cursor < total:
            room = min(WRITE_SIZE, a.machine.tcb.send_buffer_space, total - self.cursor)
            if room == 0:
                return
            chunk = bytes(self.payload[self.cursor : self.cursor + room])
            self.cursor += room
            self._do(a, a.machine.handle(AppSend(chunk), self.now))
        if not self.close_sent:
            self.close_sent = True
            self._do(a, a.machine.handle(AppClose(), self.now))

    def _transmit(self, end: _End, segment) -> None:
        image = end.encoder.encode(segment)
        wire = image if isinstance(image, bytes) else image.tobytes()
        delay = DELAY
        if end is self.a:
            roll = self.faults()
            if roll < DROP:
                self.dropped += 1
                return
            if roll < DROP + REORDER:
                self.reordered += 1
                delay += REORDER_EXTRA
        self._push(self.now + delay, _DELIVER, end.peer, wire)
