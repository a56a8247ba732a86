"""Hashed timing wheel (Varghese & Lauck, scheme 6).

A circular array of ``slots`` buckets, each ``tick`` seconds wide.  A
timer hashes to slot ``ticks(deadline) % slots``; each tick visits one
slot and fires entries whose deadline has arrived, leaving far-future
entries (more than one revolution away) in place.  Start/stop are O(1);
per-tick work is proportional to the entries hashed to the current slot.

All slot arithmetic happens in integer ticks with an epsilon guard so
float deadlines that land exactly on tick boundaries (0.3 / 0.01 =
29.999...) classify deterministically.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .base import TimerFacility, TimerHandle

#: Relative guard added before flooring a deadline/tick quotient.
_EPS = 1e-7


class HashedWheel(TimerFacility):
    """Single hashed wheel with per-slot deadline checks."""

    def __init__(self, tick: float = 0.01, slots: int = 256) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        if slots < 2:
            raise ValueError("need at least 2 slots")
        super().__init__()
        self.tick = tick
        self.slots = slots
        self._wheel: list[list[TimerHandle]] = [[] for _ in range(slots)]
        self._tick_count = 0  # The tick currently being scanned.
        self._armed = 0

    def _ticks(self, time: float) -> int:
        """Convert a time to an integer tick index, guarding boundaries."""
        return int(math.floor(time / self.tick + _EPS))

    def schedule_at(self, deadline: float, callback: Callable[[], None], payload: Any = None) -> TimerHandle:
        self._check_deadline(deadline)
        handle = TimerHandle(deadline, callback, payload)
        self._wheel[self._ticks(deadline) % self.slots].append(handle)
        self.ops += 1  # O(1) insert.
        self._armed += 1
        return handle

    def _scan_slot(self, time: float) -> int:
        """Fire due entries in the current slot; keep the rest."""
        cursor = self._tick_count % self.slots
        slot = self._wheel[cursor]
        self.ops += 1  # Slot visit.
        if not slot:
            return 0
        # Detach the slot before firing anything: a callback may re-arm
        # into this very slot (retransmit timers reschedule themselves),
        # and those appends must survive the scan, not be overwritten by
        # the keep-list below.
        self._wheel[cursor] = []
        fired = 0
        keep: list[TimerHandle] = []
        # Sort so same-slot timers fire in deadline order.
        for handle in sorted(slot, key=lambda h: (h.deadline, h.seq)):
            self.ops += 1  # One deadline comparison per entry.
            if handle.cancelled:
                self._armed -= 1
                continue
            # Due if its tick has been reached (not a future revolution)
            # and its exact deadline has passed.
            if self._ticks(handle.deadline) <= self._tick_count and handle.deadline <= time:
                self.now = max(self.now, handle.deadline)
                handle.fired = True
                self._armed -= 1
                fired += 1
                handle.callback()
            else:
                keep.append(handle)
        # Callback-era arrivals are already in the fresh list; keep them.
        self._wheel[cursor] = keep + self._wheel[cursor]
        return fired

    def advance_to(self, time: float) -> int:
        self._check_advance(time)
        fired = 0
        target_tick = self._ticks(time)
        while True:
            fired += self._scan_slot(time)
            if self._tick_count < target_tick:
                self._tick_count += 1
            else:
                break
        self.now = time
        return fired
