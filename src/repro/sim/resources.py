"""Shared-resource primitives built on the event engine.

Three primitives cover everything the substrate needs:

* :class:`Store` — an unbounded FIFO of items; the mailbox behind Mach
  ports.
* :class:`Serial` — a capacity-1 FIFO timeline whose holders know their
  hold time up front, so a turn costs one engine event; link media and
  transmit channels are these.
* :class:`CPU` — the Serial that cost-model durations are charged to,
  so protocol processing, application work, and interrupt handling
  contend for one host's cycles.
"""

from __future__ import annotations

from collections import deque
from types import MethodType
from typing import Any, Deque

from .engine import Simulator
from .events import Event


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


class Serial:
    """A capacity-1, strictly FIFO timeline: the one serialization
    mechanism (host CPUs, link media, per-transmitter channels).

    Every holder knows how long it will hold at the moment it asks, so
    its turn needs no grant event: it ends at ``max(now, busy_until) +
    duration``, and ``hold`` schedules that one instant.  The time
    is committed when asked for — a process interrupted while waiting
    on a hold does not hand its slot back; later holds keep the
    instants they reserved, and ``busy_time`` keeps the duration.
    """

    __slots__ = ("sim", "busy_until", "busy_time", "hold", "charge", "spend")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: When the last turn handed out so far ends.
        self.busy_until = 0.0
        #: Simulated seconds of turns handed out so far.
        self.busy_time = 0.0
        #: ``hold(duration, then=None)``: the turn's end event, ``then`` its
        #: first callback.  ``Simulator._turn`` bound as a method object,
        #: which cProfile does not count (a partial would be four objects).
        self.hold = self.charge = MethodType(sim._turn, self)
        #: ``spend(duration)``: a thread's turn, registered to the running
        #: process, ``Simulator._spend`` bound the same way; None when it
        #: is taken in place.
        self.spend = MethodType(sim._spend, self)


class CPU(Serial):
    """A host processor: the :class:`Serial` timeline all costed work
    on a host funnels through, so concurrent activities (interrupt
    handling, protocol processing, application copies) serialize
    exactly as they would on the paper's uniprocessor DECstations.

    A thread spends ``cost`` seconds of this CPU, FIFO behind everything
    charged earlier, with ``if cost and (turn := cpu.spend(cost)) is not
    None: yield turn``: a turn that is the engine's next step is taken
    in place, and any other comes back registered to the running
    process, so it must be yielded at once.  Interrupt context, which
    cannot yield, passes its next stage instead (``cpu.charge(cost,
    stage)``).  Callers skip zero costs: a zero-length turn would still
    wait its place in line.
    """

    __slots__ = ("name",)

    def __init__(self, sim: Simulator, name: str = "cpu") -> None:
        super().__init__(sim)
        self.name = name

