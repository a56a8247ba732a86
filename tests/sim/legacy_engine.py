"""Test oracle: the one-event-per-heap-entry engine the bucket heap replaced.

Every ordering guarantee of :class:`repro.sim.Simulator` is pinned by
running the same script on both engines (``test_engine_batching.py``,
``test_process.py``, ``test_resources.py``).  It is not production code:
on the ledger it read about 3 % fewer Python calls per op on the four
TCP workloads but cost ``fabric`` 5-14 % more host time in 6 of 6
paired runs (DESIGN.md, "Scaling the simulator").
"""

from heapq import heappop, heappush
from itertools import count

from repro.sim import NORMAL, Event, Simulator


class LegacySimulator(Simulator):
    """The original one-event-per-heap-entry engine.

    Semantics are the pre-refactor engine's, verbatim, plus the same
    stats counters the batched engine keeps.  It overrides the engine's
    five schedule-facing methods — the insertion of an event a caller
    made, the three the engine makes itself (a ``Serial`` turn, a
    thread's ``spend``, which here always returns its turn, and a
    ``call_later``) and the one drain loop — so ``run``, ``run_all``,
    ``schedule``, every event class, ``cpu.charge`` and ``cpu.spend``
    drive it through the same entry points as the bucket heap.  It
    inherits ``__init__`` but never sets the solo flag, so the next
    slot stays empty and no process takes its own step.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()

    def schedule_at(self, event: Event, t: float, priority: int = NORMAL) -> None:
        if not t >= self.now:
            raise ValueError(f"t={t} is in the past (now={self.now})")
        heappush(self._queue, (t, priority, next(self._eid), event))

    @staticmethod
    def _turn(serial, duration: float, then=None) -> Event:
        if not duration >= 0:
            raise ValueError(f"negative duration {duration}")
        sim = serial.sim
        serial.busy_until = t = max(serial.busy_until, sim.now) + duration
        serial.busy_time += duration
        event = Event(sim)
        event._ok = True
        event._value = None
        if then is not None:
            event.callbacks.append(then)
        heappush(sim._queue, (t, NORMAL, next(sim._eid), event))
        return event

    @staticmethod
    def _spend(serial, duration: float) -> Event:
        return LegacySimulator._turn(serial, duration)

    def call_later(self, delay: float, then) -> Event:
        t = self.now + delay
        if not t >= self.now:
            raise ValueError(f"t={t} is in the past (now={self.now})")
        event = Event(self)
        event._ok = True
        event._value = None
        event.callbacks.append(then)
        heappush(self._queue, (t, NORMAL, next(self._eid), event))
        return event

    def _drain(self, limit: float) -> None:
        queue = self._queue
        while queue and queue[0][0] <= limit:
            self.now, _, _, event = heappop(queue)
            self.steps += 1
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, None
            if callbacks is None:
                self.skipped += 1
                continue
            for callback in callbacks:
                callback(event)
