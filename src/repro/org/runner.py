"""MachineRunner: drives one sans-io TcpMachine on the simulator.

Executes the machine's actions — transmitting segments through an
organization-supplied path, arming simulator-backed timers, buffering
delivered data, and waking blocked readers/writers.  All organizations
share this runner; they differ only in the ``emit`` path and in the
costs charged around it.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Callable, Generator, Optional

from ..mach.kernel import Kernel
from ..mach.task import Task
from .. import obs as _obs
from ..protocols.tcp import (
    AppRead, AppSend, CancelTimer, DeliverData, DeliverFin, EmitSegment, NotifyClosed,
    NotifyConnected, Segment, SegmentArrives, SendSpaceAvailable, SetTimer, TcpMachine,
    TimerExpires,
)
from ..protocols.tcp.events import APP_ABORT, APP_CLOSE
from ..sim import Event, Simulator

#: Costed transmission path: ``emit_fn(segment, lead_cost, retransmit)``
#: charges ``lead_cost`` (the step's timer work) first, then sends.
EmitFn = Callable[[Segment, float, bool], Generator]


class MachineRunner:
    """One connection's machine plus its simulator plumbing."""

    def __init__(
        self,
        kernel: Kernel,
        machine: TcpMachine,
        emit_fn: EmitFn,
        name: str = "tcp",
        task: Optional[Task] = None,
    ) -> None:
        self.kernel = kernel
        self.sim: Simulator = kernel.sim
        self.machine = machine
        self.emit_fn = emit_fn
        self.name = name
        #: The task whose thread runs a timer expiry; None for a kernel
        #: stack's connection, whose expiries run in kernel context.
        self.task = task
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
        #: name -> [deadline, instant, event] while an engine event is
        #: kept for it (``event`` comes up at ``instant``; ``deadline`` is
        #: None once cancelled), None while none is.  A name enters on its
        #: first SetTimer: cancelling a never-armed name charges no timer_op.
        self._timers: dict[str, Optional[list]] = {}

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
        obs = _obs.SESSION
        t0 = perf_counter() if obs is not None else 0.0
        actions = self.machine.handle(event, now)
        if obs is not None:
            site = _MACHINE_SITES.get(event.__class__, "tcp.machine.app")
            obs.profiler.charge(site, 0.0, perf_counter() - t0)
        return self._execute(actions, now)

    def start(self, active: bool) -> Generator:
        now = self.sim.now
        return self._execute(self.machine.open(now, active=active), now)

    def feed_segment(self, segment: Segment) -> Generator:
        """Deliver one received segment to the machine: header
        prediction first (:meth:`TcpMachine.fast_input`: pure in-window
        ACK, next-in-sequence data whose ACK stays within sent
        territory, as each segment of an echo does), the full
        :meth:`handle` machinery on a miss.  The profiler attributes
        the two outcomes to distinct sites, so the fast/slow split is
        visible in its report."""
        machine = self.machine
        now = self.sim.now
        obs = _obs.SESSION
        t0 = perf_counter() if obs is not None else 0.0
        actions = machine.fast_input(segment, now)
        site = "tcp.machine.fastpath"
        if actions is None:
            actions = machine.handle(SegmentArrives.build((segment,)), now)
            site = "tcp.machine.input"
        if obs is not None:
            obs.profiler.charge(site, 0.0, perf_counter() - t0)
        return self._execute(actions, now)

    def app_send(self, data: bytes, entry_cost: float) -> Generator:
        """Blocking write: the organization's ``entry_cost``, then waits
        for send-buffer space and queues."""
        if entry_cost and (turn := self.kernel.cpu.spend(entry_cost)) is not None:
            yield turn
        offset = 0
        total = len(data)
        while offset < total:
            # Checked on every turn: teardown empties the send buffer,
            # so a writer woken by it would find space on a dead machine.
            if self.closed_reason is not None:
                raise ConnectionResetError(f"connection closed ({self.closed_reason})")
            tcb = self.machine.tcb
            space = tcb.config.snd_buffer - len(tcb.send_buffer)  # send_buffer_space
            if space == 0:
                yield self.sim.park(self._writers)
                continue
            chunk = bytes(data[offset : offset + space])
            offset += len(chunk)
            yield from self.handle(AppSend.build((chunk,)))

    def app_recv(
        self, max_bytes: int, exit_cost: Callable[[int, bool], float], exact: bool = False
    ) -> Generator:
        """Blocking read: up to ``max_bytes`` (b'' at EOF), then the
        organization's ``exit_cost(len(data), blocked on entry)``.  An
        ``exact`` read repeats that, a chunk a read, until it has all of
        ``max_bytes``, and raises ConnectionError at an early EOF."""
        if max_bytes <= 0 and not (exact and max_bytes == 0):
            raise ValueError("max_bytes must be positive")
        chunks = []
        remaining = max_bytes
        while remaining:
            blocked = not self.rx_buffer
            while not self.rx_buffer:
                if self.eof or self.closed_reason is not None:
                    break
                yield self.sim.park(self._readers)
            data = bytes(self.rx_buffer[:remaining])
            nbytes = len(data)
            if nbytes:
                del self.rx_buffer[:nbytes]
                # Tell the machine the app consumed data (window update logic).
                yield from self.handle(AppRead.build((nbytes,)))
            cost = exit_cost(nbytes, blocked)
            if cost and (turn := self.kernel.cpu.spend(cost)) is not None:
                yield turn
            if not exact:
                return data
            if not nbytes:
                raise ConnectionError(f"EOF after {max_bytes - remaining} of {max_bytes} bytes")
            remaining -= nbytes
            if not (remaining or chunks):
                return data  # All of it in one chunk.
            chunks.append(data)
        return b"".join(chunks)

    def app_close(self) -> Generator:
        return self.handle(APP_CLOSE)

    def app_abort(self) -> Generator:
        return self.handle(APP_ABORT)

    def wait_connected(self) -> Generator:
        if self.connected:
            return True
        if self.closed_reason is not None:
            return False
        yield self.sim.park(self._connect_waiters)
        return self.connected

    def wait_closed(self) -> Generator:
        if self.closed_reason is not None:
            return self.closed_reason
        yield self.sim.park(self._close_waiters)
        return self.closed_reason

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------

    def _execute(self, actions, now: float) -> Generator:
        """Apply the actions one handle() returned at ``now``; return
        what ``yield from`` runs for their costed work.

        Bookkeeping (timers, buffers, wakeups) is applied
        *synchronously*, before any simulated time passes, so it always
        matches the machine's decision order.  Several host processes
        (the app thread, the reader thread, timer processes) drive the
        same runner; if a CancelTimer were executed after its handle
        yielded for CPU, it could race a SetTimer issued by a later
        handle and silently kill the fresh timer.  Only the costed work
        (timer-op CPU charges and segment emission) yields: a lone
        emission is its ``emit_fn``, with no runner frame above it.
        """
        emissions: list[EmitSegment] = []
        timer_ops = 0
        timers = self._timers
        for action in actions:
            kind = action.__class__
            woken = ()
            if kind is EmitSegment:
                emissions.append(action)
            elif kind is SetTimer:
                timer_ops += 1
                name = action.name
                deadline = now + action.delay
                timer = timers[name] if name in timers else None
                if timer is not None and deadline >= timer[1]:
                    # The kept event carries the timer on when it comes up.
                    timer[0] = deadline
                else:
                    self._arm_timer(name, now, action.delay)
            elif kind is CancelTimer:
                if action.name in timers:
                    timer_ops += 1
                    timer = timers[action.name]
                    if timer is not None:
                        timer[0] = None
            elif kind is DeliverData:
                self.rx_buffer.extend(action.data)
                woken = (self._readers,)
            elif kind is SendSpaceAvailable:
                woken = (self._writers,)
            elif kind is DeliverFin:
                self.eof = True
                woken = (self._readers,)
            elif kind is NotifyConnected:
                self.connected = True
                woken = (self._connect_waiters,)
            elif kind is NotifyClosed:
                self.closed_reason = action.reason
                self.stop_timers()
                woken = (
                    self._readers, self._writers,
                    self._connect_waiters, self._close_waiters,
                )
            else:
                raise AssertionError(f"unhandled action {action!r}")
            # Wake in place, LIFO, before the next action: most of these
            # lists are empty, so no helper call per action.
            for waiters in woken:
                while waiters:
                    waiters.pop().succeed()
        lead = 0.0
        if timer_ops:
            lead = self.kernel.costs.timer_op * timer_ops
            obs = _obs.SESSION
            if obs is not None:
                obs.profiler.charge("tcp.timer_op", lead)
        if not emissions:
            if lead:
                # Timers only: the one turn, for the caller to yield.
                turn = self.kernel.cpu.spend(lead)
                return () if turn is None else (turn,)
            return ()
        if len(emissions) == 1:
            (action,) = emissions
            return self.emit_fn(action.segment, lead, action.retransmit)
        return self._emit_all(emissions, lead)

    def _emit_all(self, emissions: list[EmitSegment], lead: float) -> Generator:
        """A step that emits several segments."""
        for action in emissions:
            yield from self.emit_fn(action.segment, lead, action.retransmit)
            lead = 0.0

    def _arm_timer(self, name: str, now: float, delay: float) -> None:
        """Arm one named timer on a fresh engine event, any horizon.  A
        kept event here is due after the new deadline: it is cancelled,
        a tombstone the engine skips."""
        old = self._timers.get(name)
        if old is not None:
            old[2].cancel()
        event = self.sim.call_later(delay, partial(self._timer_fired, name))
        self._timers[name] = [now + delay, now + delay, event]

    def _timer_fired(self, name: str, _event: Event) -> None:
        """Engine callback, so it must not block.  A re-armed timer's
        event is placed again, at its deadline's exact float; a
        cancelled one's retires; a due one feeds ``TimerExpires`` to the
        machine in a fresh process, which the engine resumes right after
        this event (spawns are urgent at the current timestamp): a
        thread of the runner's task, and nothing once that task has
        exited."""
        timer = self._timers[name]
        deadline = timer[0]
        if deadline is not None and deadline > self.sim.now:
            timer[1] = deadline
            timer[2].callbacks = [partial(self._timer_fired, name)]
            self.sim.schedule_at(timer[2], deadline)
            return
        self._timers[name] = None
        if deadline is None or self.closed_reason is not None:
            return  # Cancelled, or armed by the machine's last actions, after close.
        task = self.task
        if task is None:
            self.sim.process(self._expire(name), name=f"{self.name}-{name}")
        elif task.alive:
            task.spawn(self._expire(name), name=f"{self.name}-{name}")

    def _expire(self, name: str) -> Generator:
        # A generator, so the machine runs when the process first
        # resumes, not in the engine callback that spawned it.
        yield from self.handle(TimerExpires.build((name,)))

    def stop_timers(self) -> dict[str, float]:
        """Cancel every kept timer event.  Returns name -> deadline of
        the live timers: the machine still expects them, so whoever takes
        the machine over passes them to :meth:`resume_timers`."""
        live = {}
        for name, timer in self._timers.items():
            if timer is not None:
                if timer[0] is not None:
                    live[name] = timer[0]
                timer[2].cancel()
                self._timers[name] = None
        return live

    def resume_timers(self, deadlines: dict[str, float]) -> None:
        """Re-arm the timers the machine's previous runner stopped; one
        that came due in between fires now."""
        now = self.sim.now
        for name, deadline in deadlines.items():
            self._arm_timer(name, now, max(0.0, deadline - now))


#: Profiler site of one machine callback, by event class (the rest are
#: the application's: "tcp.machine.app").
_MACHINE_SITES = {
    SegmentArrives: "tcp.machine.input",
    TimerExpires: "tcp.machine.timer",
}
