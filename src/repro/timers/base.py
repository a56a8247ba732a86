"""Common interface for timer facilities.

The paper (§2.1) notes that "practically every message arrival and
departure involves timer operations" and points at hashed and
hierarchical timing wheels [Varghese & Lauck] for fast implementations.
We provide three interchangeable facilities — a binary-heap baseline, a
hashed wheel, and hierarchical wheels — behind one interface, so the
ablation bench can compare them.

Time is float seconds.  A facility is driven by calling
:meth:`TimerFacility.advance_to` with monotonically non-decreasing times;
due timers fire (their callbacks run) in deadline order within the
facility's guarantees.
"""

from __future__ import annotations

import abc
import itertools
from typing import Any, Callable


class TimerHandle:
    """A scheduled timer; cancellable until it fires."""

    __slots__ = ("deadline", "callback", "cancelled", "fired", "seq", "payload")

    _seq = itertools.count()

    def __init__(self, deadline: float, callback: Callable[[], None], payload: Any = None) -> None:
        self.deadline = deadline
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.fired = False
        self.seq = next(TimerHandle._seq)

    def cancel(self) -> None:
        """Cancel the timer; a no-op if it already fired."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "fired" if self.fired else "cancelled" if self.cancelled else "armed"
        return f"<Timer @{self.deadline:.6f} {state}>"


class TimerFacility(abc.ABC):
    """Deadline-ordered callback scheduling."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Basic-operation counter (slot visits + comparisons + moves),
        #: used by the ablation bench to compare algorithmic work.
        self.ops = 0

    @abc.abstractmethod
    def schedule_at(self, deadline: float, callback: Callable[[], None], payload: Any = None) -> TimerHandle:
        """Arm a timer to fire at ``deadline`` (>= now)."""

    def schedule(self, delay: float, callback: Callable[[], None], payload: Any = None) -> TimerHandle:
        """Arm a timer ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, payload)

    @abc.abstractmethod
    def advance_to(self, time: float) -> int:
        """Move the clock to ``time``, firing due timers.  Returns count fired."""

    def _check_advance(self, time: float) -> None:
        if time < self.now:
            raise ValueError(f"cannot advance backwards: {time} < {self.now}")

    def _check_deadline(self, deadline: float) -> None:
        if deadline < self.now:
            raise ValueError(f"deadline {deadline} is in the past (now={self.now})")
