"""Binary-heap timer facility — the O(log n) baseline."""

from __future__ import annotations

import heapq
from typing import Any, Callable

from .base import TimerFacility, TimerHandle


class HeapTimers(TimerFacility):
    """Classic priority-queue timers.

    Cancellation is lazy: cancelled entries stay in the heap until their
    deadline passes, as in most real heap-based timer implementations.
    """

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, TimerHandle]] = []
        self._armed = 0

    def schedule_at(self, deadline: float, callback: Callable[[], None], payload: Any = None) -> TimerHandle:
        self._check_deadline(deadline)
        handle = TimerHandle(deadline, callback, payload)
        heapq.heappush(self._heap, (deadline, handle.seq, handle))
        self.ops += len(self._heap).bit_length()  # ~log2 sift cost
        self._armed += 1
        return handle

    def advance_to(self, time: float) -> int:
        self._check_advance(time)
        fired = 0
        while self._heap and self._heap[0][0] <= time:
            deadline, _, handle = heapq.heappop(self._heap)
            self.ops += max(1, len(self._heap).bit_length())
            self._armed -= 1
            if handle.cancelled:
                continue
            self.now = deadline
            handle.fired = True
            fired += 1
            handle.callback()
        self.now = time
        return fired
