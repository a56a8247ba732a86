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

from repro.sim import NORMAL, EmptySchedule, Event, Simulator


class LegacySimulator(Simulator):
    """The original one-event-per-heap-entry engine.

    Semantics are the pre-refactor engine's, verbatim, plus the same
    stats counters the batched engine keeps.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()

    def peek(self) -> float:
        return self._queue[0][0] if self._queue else float("inf")

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def schedule_at(self, event: Event, t: float) -> None:
        if t < self._now:
            raise ValueError(f"t={t} is in the past (now={self._now})")
        heappush(self._queue, (t, NORMAL, next(self._eid), event))

    def step(self) -> None:
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.steps += 1
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            self.skipped += 1
            return
        for callback in callbacks:
            callback(event)

    def run_all(self, limit: float = float("inf")) -> None:
        queue, step = self._queue, self.step
        while queue and queue[0][0] <= limit:
            step()
