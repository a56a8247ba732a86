"""MachineRunner: drives one sans-io TcpMachine on the simulator.

Executes the machine's actions — transmitting segments through an
organization-supplied path, arming simulator-backed timers, buffering
delivered data, and waking blocked readers/writers.  All organizations
share this runner; they differ only in the ``emit`` path and in the
costs charged around it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Generator, Optional

from ..mach.kernel import Kernel
from ..obs import profile as _profile
from ..protocols.tcp import (
    AppAbort,
    AppClose,
    AppRead,
    AppSend,
    CancelTimer,
    DeliverData,
    DeliverFin,
    EmitSegment,
    NotifyClosed,
    NotifyConnected,
    Segment,
    SegmentArrives,
    SendSpaceAvailable,
    SetTimer,
    TcpMachine,
    TimerExpires,
)
from ..sim import Event, Simulator

#: Costed transmission path: generator sending one segment to the peer.
EmitFn = Callable[[Segment], Generator]


class MachineRunner:
    """One connection's machine plus its simulator plumbing."""

    def __init__(
        self,
        kernel: Kernel,
        machine: TcpMachine,
        emit_fn: EmitFn,
        name: str = "tcp",
    ) -> None:
        self.kernel = kernel
        self.sim: Simulator = kernel.sim
        self.machine = machine
        self.emit_fn = emit_fn
        self.name = name
        # Receive side.
        self.rx_buffer = bytearray()
        self.eof = False
        self._readers: list[Event] = []
        self._writers: list[Event] = []
        # Lifecycle.
        self.connected = False
        self.closed_reason: Optional[str] = None
        self._connect_waiters: list[Event] = []
        self._close_waiters: list[Event] = []
        #: name -> (deadline, the engine event that will fire it), or
        #: None once it fired or was cancelled.  A name enters on its
        #: first SetTimer: cancelling a never-armed name charges no
        #: timer_op.
        self._timers: dict[str, Optional[tuple[float, Event]]] = {}
        #: True while the emit_fn started by _execute is for a segment
        #: the machine flagged as a retransmission.  Set immediately
        #: before the emit generator's first resumption, so an emit_fn
        #: reading it before its first yield sees its own flag.
        self.emitting_retransmit = False

    # ------------------------------------------------------------------
    # Event entry points (``yield from`` each; costs ride on emit_fn)
    # ------------------------------------------------------------------

    def handle(self, event) -> Generator:
        """Feed one event to the machine *now* and return the generator
        that executes its actions.  A plain method, not a generator: a
        frame here would be re-entered on every yield beneath it."""
        now = self.sim.now
        # The machine is the synchronous protocol callback: this is the
        # one place its real CPU time can be measured whole.
        prof = _profile.PROFILER
        t0 = perf_counter() if prof is not None else 0.0
        actions = self.machine.handle(event, now)
        if prof is not None:
            site = _MACHINE_SITES.get(event.__class__, "tcp.machine.app")
            prof.charge(site, 0.0, perf_counter() - t0)
        return self._execute(actions, now)

    def start(self, active: bool) -> Generator:
        now = self.sim.now
        return self._execute(self.machine.open(now, active=active), now)

    def feed_segment(self, segment: Segment) -> Generator:
        """Deliver one received segment to the machine: header
        prediction first (:meth:`TcpMachine.fast_input`: pure in-window
        ACK, next-in-sequence data), the full :meth:`handle` machinery
        on a miss.  The profiler attributes the two outcomes to distinct
        sites, so the fast/slow split is visible in its report."""
        machine = self.machine
        now = self.sim.now
        prof = _profile.PROFILER
        t0 = perf_counter() if prof is not None else 0.0
        actions = machine.fast_input(segment, now)
        site = "tcp.machine.fastpath"
        if actions is None:
            actions = machine.handle(SegmentArrives(segment), now)
            site = "tcp.machine.input"
        if prof is not None:
            prof.charge(site, 0.0, perf_counter() - t0)
        return self._execute(actions, now)

    def app_send(self, data: bytes) -> Generator:
        """Blocking write: waits for send-buffer space, then queues."""
        offset = 0
        total = len(data)
        while offset < total:
            # Checked on every turn: teardown empties the send buffer,
            # so a writer woken by it would find space on a dead machine.
            if self.closed_reason is not None:
                raise ConnectionResetError(f"connection closed ({self.closed_reason})")
            space = self.machine.tcb.send_buffer_space
            if space == 0:
                event = self.sim.event()
                self._writers.append(event)
                yield event
                continue
            chunk = bytes(data[offset : offset + space])
            offset += len(chunk)
            yield from self.handle(AppSend(chunk))

    def app_recv(self, max_bytes: int) -> Generator:
        """Blocking read: returns up to ``max_bytes`` (b'' at EOF)."""
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        while not self.rx_buffer:
            if self.eof or self.closed_reason is not None:
                return b""
            event = self.sim.event()
            self._readers.append(event)
            yield event
        data = bytes(self.rx_buffer[:max_bytes])
        del self.rx_buffer[: len(data)]
        # Tell the machine the app consumed data (window update logic).
        yield from self.handle(AppRead(len(data)))
        return data

    def app_close(self) -> Generator:
        return self.handle(AppClose())

    def app_abort(self) -> Generator:
        return self.handle(AppAbort())

    def wait_connected(self) -> Generator:
        if self.connected:
            return True
        if self.closed_reason is not None:
            return False
        event = self.sim.event()
        self._connect_waiters.append(event)
        yield event
        return self.connected

    def wait_closed(self) -> Generator:
        if self.closed_reason is not None:
            return self.closed_reason
        event = self.sim.event()
        self._close_waiters.append(event)
        yield event
        return self.closed_reason

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------

    def _execute(self, actions, now: float) -> Generator:
        """Run the actions one handle() returned at ``now``.

        Bookkeeping (timers, buffers, wakeups) is applied
        *synchronously*, before any simulated time passes, so it always
        matches the machine's decision order.  Several host processes
        (the app thread, the reader thread, timer processes) drive the
        same runner; if a CancelTimer were executed after its handle
        yielded for CPU, it could race a SetTimer issued by a later
        handle and silently kill the fresh timer.  Only the costed work
        (timer-op CPU charges and segment emission) yields.
        """
        emissions: list[EmitSegment] = []
        timer_ops = 0
        timers = self._timers
        for action in actions:
            kind = action.__class__
            if kind is EmitSegment:
                emissions.append(action)
            elif kind is SetTimer:
                timer_ops += 1
                self._arm_timer(action.name, now, action.delay)
            elif kind is CancelTimer:
                if action.name in timers:
                    timer_ops += 1
                    timer = timers[action.name]
                    if timer is not None:
                        timer[1].cancel()
                        timers[action.name] = None
            elif kind is DeliverData:
                self.rx_buffer.extend(action.data)
                self._wake(self._readers)
            elif kind is SendSpaceAvailable:
                self._wake(self._writers)
            elif kind is DeliverFin:
                self.eof = True
                self._wake(self._readers)
            elif kind is NotifyConnected:
                self.connected = True
                self._wake(self._connect_waiters)
            elif kind is NotifyClosed:
                self.closed_reason = action.reason
                self.stop_timers()
                self._wake(self._readers)
                self._wake(self._writers)
                self._wake(self._connect_waiters)
                self._wake(self._close_waiters)
            else:
                raise AssertionError(f"unhandled action {action!r}")
        if timer_ops:
            cost = self.kernel.costs.timer_op * timer_ops
            prof = _profile.PROFILER
            if prof is not None:
                prof.charge("tcp.timer_op", cost)
            if cost:
                yield self.kernel.cpu.charge(cost)
        for action in emissions:
            self.emitting_retransmit = action.retransmit
            try:
                yield from self.emit_fn(action.segment)
            finally:
                self.emitting_retransmit = False

    def _arm_timer(self, name: str, now: float, delay: float) -> None:
        """(Re-)arm one named timer: one cancellable engine event, any
        horizon.  A re-armed or cancelled timer leaves a tombstone the
        engine skips; its callback never runs."""
        old = self._timers.get(name)
        if old is not None:
            old[1].cancel()
        self._timers[name] = (
            now + delay,
            self.sim.call_later(delay, self._timer_fired, name),
        )

    def _timer_fired(self, name: str) -> None:
        """Engine callback, so it must not block: feed ``TimerExpires``
        to the machine in a fresh process, which the engine resumes
        right after this event (spawns are urgent at the current
        timestamp)."""
        self._timers[name] = None
        if self.closed_reason is not None:
            return  # Armed by the machine's last actions, after close.
        self.sim.process(self._expire(name), name=f"{self.name}-{name}")

    def _expire(self, name: str) -> Generator:
        # A generator, so the machine runs when the process first
        # resumes, not in the engine callback that spawned it.
        yield from self.handle(TimerExpires(name))

    def stop_timers(self) -> dict[str, float]:
        """Cancel every armed timer.  Returns name -> deadline of those
        that were live: the machine still expects them, so whoever takes
        the machine over passes them to :meth:`resume_timers`."""
        live = {}
        for name, timer in self._timers.items():
            if timer is not None:
                live[name], event = timer
                event.cancel()
                self._timers[name] = None
        return live

    def resume_timers(self, deadlines: dict[str, float]) -> None:
        """Re-arm the timers the machine's previous runner stopped; one
        that came due in between fires now."""
        now = self.sim.now
        for name, deadline in deadlines.items():
            self._arm_timer(name, now, max(0.0, deadline - now))

    @staticmethod
    def _wake(waiters: list[Event]) -> None:
        while waiters:
            waiters.pop().succeed()


#: Profiler site of one machine callback, by event class (the rest are
#: the application's: "tcp.machine.app").
_MACHINE_SITES = {
    SegmentArrives: "tcp.machine.input",
    TimerExpires: "tcp.machine.timer",
}
