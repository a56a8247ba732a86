"""Shared-resource primitives built on the event engine.

Three primitives cover everything the substrate needs:

* :class:`Store` — an unbounded-or-bounded FIFO of items; the universal
  mailbox/queue used by NICs, IPC, and device drivers.
* :class:`Serial` — a capacity-1 FIFO timeline whose holders know their
  hold time up front, so a turn costs one engine event; link media and
  transmit channels are these.
* :class:`CPU` — the Serial that cost-model durations are charged to,
  so protocol processing, application work, and interrupt handling
  contend for one host's cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from .engine import Simulator
from .events import PENDING, Event


class StorePut(Event):
    """Request to place ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        self.sim = store.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._cancelled = False
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Request to take the next item out of a store."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        self.sim = store.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._cancelled = False
        store._get_queue.append(self)
        store._trigger()


class Store:
    """A FIFO of items with event-based put/get.

    ``capacity`` bounds the number of buffered items; puts beyond the
    bound block until space frees.  The default is unbounded.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Event that fires when ``item`` has entered the store."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Event that fires with the next item."""
        return StoreGet(self)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if len(self.items) >= self.capacity:
            return False
        # Room in the store means no put is blocked ahead of this one
        # (``_trigger`` admits blocked puts the moment space frees), so
        # the item goes straight in: no StorePut event nobody waits on.
        self.items.append(item)
        self._trigger()
        return True

    def try_get(self) -> Any:
        """Non-blocking get; returns None if the store is empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._trigger()
        return item

    def _trigger(self) -> None:
        items = self.items
        put_queue = self._put_queue
        get_queue = self._get_queue
        capacity = self.capacity
        while True:
            progressed = False
            while put_queue and len(items) < capacity:
                put = put_queue.popleft()
                items.append(put.item)
                put.succeed()
                progressed = True
            while get_queue and items:
                get_queue.popleft().succeed(items.popleft())
                progressed = True
            if not progressed:
                return


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

    def hold(self, duration: float) -> Event:
        """Event that fires when a ``duration``-long turn, queued FIFO
        behind every earlier hold, completes."""
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        sim = self.sim
        start = self.busy_until
        if start < sim._now:
            start = sim._now
        self.busy_until = done = start + duration
        self.busy_time += duration
        event = Event(sim)
        event._ok = True
        event._value = None
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
    #: this CPU, FIFO behind everything charged earlier.  Callers skip
    #: zero costs (``if cost:``) — a zero-length turn would still wait
    #: its place in line.
    charge = Serial.hold

    def consume(self, cost: float) -> Generator[Event, Any, None]:
        """Generator form of :meth:`charge`; a zero cost is free."""
        if cost:
            yield self.charge(cost)
