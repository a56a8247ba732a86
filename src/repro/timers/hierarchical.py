"""Hierarchical timing wheels (Varghese & Lauck, scheme 7).

Several wheels of increasing granularity: a timer far in the future lives
in a coarse wheel and *cascades* down into finer wheels as its deadline
approaches.  Start/stop stay O(1); per-tick work is bounded by the
entries cascading or firing now, which keeps slot scans short even with
deadlines spread over a huge range — the case a single hashed wheel
handles poorly.

Slot arithmetic is integer-tick-based with an epsilon guard, matching
:mod:`repro.timers.wheel`.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .base import TimerFacility, TimerHandle

_EPS = 1e-7


class HierarchicalWheel(TimerFacility):
    """A hierarchy of wheels, each ``slots`` times coarser than the last.

    ``tick`` is the finest granularity; ``levels`` wheels of ``slots``
    slots cover a horizon of ``tick * slots**levels`` seconds.
    """

    def __init__(self, tick: float = 0.01, slots: int = 64, levels: int = 4) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        if slots < 2:
            raise ValueError("need at least 2 slots")
        if levels < 1:
            raise ValueError("need at least 1 level")
        super().__init__()
        self.tick = tick
        self.slots = slots
        self.levels = levels
        self._wheels: list[list[list[TimerHandle]]] = [
            [[] for _ in range(slots)] for _ in range(levels)
        ]
        self._tick_count = 0  # Finest-granularity tick being scanned.
        self._armed = 0

    @property
    def horizon(self) -> float:
        """Longest schedulable delay."""
        return self.tick * (self.slots ** self.levels)

    def _ticks(self, time: float) -> int:
        return int(math.floor(time / self.tick + _EPS))

    def _place(self, handle: TimerHandle) -> None:
        """File ``handle`` into the correct wheel for its remaining time."""
        deadline_ticks = self._ticks(handle.deadline)
        remaining = max(0, deadline_ticks - self._tick_count)
        span = 1
        for level in range(self.levels):
            span *= self.slots
            if remaining < span or level == self.levels - 1:
                # Slot index within this level's wheel.
                level_ticks = deadline_ticks // (span // self.slots)
                self._wheels[level][level_ticks % self.slots].append(handle)
                self.ops += 1  # O(1) filing.
                return

    def schedule_at(self, deadline: float, callback: Callable[[], None], payload: Any = None) -> TimerHandle:
        self._check_deadline(deadline)
        if deadline - self.now > self.horizon:
            raise ValueError(
                f"deadline beyond wheel horizon ({self.horizon:.3f}s)"
            )
        handle = TimerHandle(deadline, callback, payload)
        self._place(handle)
        self._armed += 1
        return handle

    def _scan_finest(self, time: float) -> int:
        cursor = self._tick_count % self.slots
        slot = self._wheels[0][cursor]
        self.ops += 1  # Slot visit.
        if not slot:
            return 0
        # Detach before firing: callback re-arms into this slot must
        # survive the scan (see HashedWheel._scan_slot).
        self._wheels[0][cursor] = []
        fired = 0
        keep: list[TimerHandle] = []
        for handle in sorted(slot, key=lambda h: (h.deadline, h.seq)):
            self.ops += 1
            if handle.cancelled:
                self._armed -= 1
                continue
            if self._ticks(handle.deadline) <= self._tick_count and handle.deadline <= time:
                self.now = max(self.now, handle.deadline)
                handle.fired = True
                self._armed -= 1
                fired += 1
                handle.callback()
            else:
                keep.append(handle)
        self._wheels[0][cursor] = keep + self._wheels[0][cursor]
        return fired

    def _cascade(self) -> None:
        """On coarse-tick boundaries, re-file entries downward."""
        ticks = self._tick_count
        span = 1
        for level in range(1, self.levels):
            span *= self.slots
            if ticks % span:
                break
            cursor = (ticks // span) % self.slots
            entries = self._wheels[level][cursor]
            if not entries:
                self.ops += 1
                continue
            self._wheels[level][cursor] = []
            self.ops += 1  # Slot visit.
            for handle in entries:
                if handle.cancelled:
                    self._armed -= 1
                    continue
                self._place(handle)

    def advance_to(self, time: float) -> int:
        self._check_advance(time)
        fired = 0
        target_tick = self._ticks(time)
        while True:
            fired += self._scan_finest(time)
            if self._tick_count < target_tick:
                self._tick_count += 1
                self._cascade()
            else:
                break
        self.now = time
        return fired
