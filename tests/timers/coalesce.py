"""Test fixture: a :class:`TimerFacility` driven from the engine clock.

This was the stack's timer wiring (``Kernel.timer_service``) until TCP
timers became plain engine events; it left ``src/`` with that change and
nothing in ``repro`` or ``benchmarks/`` uses it.  It stays here as the
harness ``test_coalesce.py`` runs the three ablation-arm facilities
under: many timers in one facility, exactly one engine wakeup armed for
the earliest pending deadline, every due timer fired by one
``advance_to(now)``, a stale wakeup retired by an ``Event.cancel``
tombstone.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import Simulator, Timeout
from repro.timers import TimerFacility, TimerHandle


class CoalescedTimers:
    """Drive a :class:`TimerFacility` from the engine, batching wakeups."""

    def __init__(self, sim: Simulator, facility: TimerFacility) -> None:
        self.sim = sim
        self.facility = facility
        self._wakeup: Optional[Timeout] = None
        self._wakeup_deadline = float("inf")
        self._advancing = False
        #: Engine wakeup events actually scheduled.
        self.wakeups = 0
        #: Stale wakeups retired via lazy cancellation.
        self.wakeups_cancelled = 0
        #: Timers fired (across all wakeups).
        self.fired = 0

    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Armed timers in the underlying facility."""
        return self.facility.pending

    def schedule(self, delay: float, callback: Callable[[], None], payload: Any = None) -> TimerHandle:
        """Arm a timer ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.sim.now + delay, callback, payload)

    def schedule_at(self, deadline: float, callback: Callable[[], None], payload: Any = None) -> TimerHandle:
        """Arm a timer for an absolute deadline (>= sim.now)."""
        facility = self.facility
        if facility.now < self.sim.now and not self._advancing:
            # Keep the facility clock in lockstep; no timer can be due
            # here or the wakeup for it would already have fired.  Not
            # re-entered while a wakeup is mid-advance: timers armed by
            # firing callbacks just join the facility, and the running
            # advance_to / the re-arm below pick them up.
            self.fired += facility.advance_to(self.sim.now)
        handle = facility.schedule_at(deadline, callback, payload)
        # Compare against the armed wakeup directly instead of asking the
        # facility for next_deadline(): the wheels answer that in O(n).
        if deadline < self._wakeup_deadline:
            self._arm(deadline)
        return handle

    # ------------------------------------------------------------------

    def _arm(self, deadline: float) -> None:
        if self._wakeup is not None:
            if self._wakeup.cancel():
                self.wakeups_cancelled += 1
        wakeup = Timeout(self.sim, max(0.0, deadline - self.sim.now))
        wakeup.callbacks.append(self._fire)
        self._wakeup = wakeup
        self._wakeup_deadline = deadline
        self.wakeups += 1

    def _fire(self, _event) -> None:
        self._wakeup = None
        self._wakeup_deadline = float("inf")
        # One engine event fires every timer due at (or before) now.
        self._advancing = True
        try:
            self.fired += self.facility.advance_to(self.sim.now)
        finally:
            self._advancing = False
        nxt = self.facility.next_deadline()
        if nxt is not None:
            self._arm(nxt)
