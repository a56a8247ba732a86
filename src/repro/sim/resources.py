"""Shared-resource primitives built on the event engine.

Three primitives cover everything the substrate needs:

* :class:`Store` — an unbounded FIFO of items; the mailbox behind Mach
  ports and accept backlogs.
* :class:`Serial` — a capacity-1 FIFO timeline whose holders know their
  hold time up front, so a turn costs one engine event; link media and
  transmit channels are these.
* :class:`CPU` — the Serial that cost-model durations are charged to,
  so protocol processing, application work, and interrupt handling
  contend for one host's cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .engine import Simulator
from .events import Event, Triggered


class Store:
    """An unbounded FIFO of items: ``put`` is a plain call, ``get`` an
    event."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Hand ``item`` to the longest-waiting getter, whose event
        fires at this instant, or queue it.  Schedules nothing else:
        an unbounded store never makes its producer wait."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item."""
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def fail_getters(self, exception: BaseException) -> None:
        """Fail every waiting getter with ``exception``: the consumer
        side is gone (a listener closed), and nothing will be put."""
        while self._getters:
            self._getters.popleft().fail(exception)


class Serial:
    """A capacity-1, strictly FIFO timeline: the one serialization
    mechanism (host CPUs, link media, per-transmitter channels).

    Every holder knows how long it will hold at the moment it asks, so
    its turn needs no grant event: it ends at ``max(now, busy_until) +
    duration``, and :meth:`hold` schedules that one instant.  The time
    is committed when asked for — a process interrupted while waiting
    on a hold does not hand its slot back; later holds keep the
    instants they reserved, and ``busy_time`` keeps the duration.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: When the last turn handed out so far ends.
        self.busy_until = 0.0
        #: Simulated seconds of turns handed out so far.
        self.busy_time = 0.0

    def hold(self, duration: float, then: Optional[Callable[[Event], None]] = None) -> Event:
        """Event that fires when a ``duration``-long turn, queued FIFO
        behind every earlier hold, completes.  ``then(event)`` runs
        first when it does: the next stage of a callback chain."""
        # Not ``duration < 0``: a NaN must be refused before it reaches
        # ``busy_until``, where it would poison every later turn.
        if not duration >= 0:
            raise ValueError(f"negative duration {duration}")
        sim = self.sim
        start = self.busy_until
        now = sim.now
        if start < now:
            start = now
        self.busy_until = done = start + duration
        self.busy_time += duration
        event = Triggered()
        event.sim = sim
        event.callbacks = [] if then is None else [then]
        event._value = None
        event._ok = True
        event._cancelled = False
        sim.schedule_at(event, done)
        return event


class CPU(Serial):
    """A host processor: the :class:`Serial` timeline all costed work
    on a host funnels through, so concurrent activities (interrupt
    handling, protocol processing, application copies) serialize
    exactly as they would on the paper's uniprocessor DECstations.
    """

    def __init__(self, sim: Simulator, name: str = "cpu") -> None:
        super().__init__(sim)
        self.name = name

    #: ``yield host.cpu.charge(costs.trap)``: spend ``cost`` seconds of
    #: this CPU, FIFO behind everything charged earlier; interrupt
    #: context, which cannot yield, passes its next stage instead
    #: (``cpu.charge(cost, stage)``).  Callers skip zero costs
    #: (``if cost:``) — a zero-length turn would still wait its place
    #: in line.
    charge = Serial.hold
