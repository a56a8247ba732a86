"""User-level synchronization: the C-Threads-style semaphore.

The paper's library is multithreaded with user-level primitives ("multiple
threads of control and synchronization are provided by user-level C Thread
primitives rather than kernel primitives"), and packet arrival is signalled
to the library through a lightweight semaphore.  The semaphore charges
the (small) user-level sync cost; the kernel-to-user *notification*
semaphore cost is charged by the network I/O module at signal time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator

from ..sim import Event, Simulator
from .kernel import Kernel


class Semaphore:
    """Counting semaphore with FIFO wakeup order."""

    def __init__(self, kernel: Kernel, value: int = 0, name: str = "sem") -> None:
        if value < 0:
            raise ValueError("initial value must be non-negative")
        self.kernel = kernel
        self.sim: Simulator = kernel.sim
        self.name = name
        #: Current count (never negative: waiters queue instead).
        self.value = value
        self._waiters: Deque[Event] = deque()

    @property
    def waiting(self) -> int:
        """Number of threads blocked in :meth:`wait`."""
        return len(self._waiters)

    def wait(self) -> Generator:
        """P operation: decrement, blocking while the count is zero."""
        cost = self.kernel.costs.cthread_sync_op
        if cost:
            yield self.kernel.cpu.charge(cost)
        if self.value > 0:
            self.value -= 1
            return
        event = self.sim.event()
        self._waiters.append(event)
        try:
            yield event
        except BaseException:
            # Interrupted while blocked: withdraw from the wait queue so
            # a later signal isn't swallowed by our dead event.  If the
            # signal already picked us, pass it on to the next waiter.
            try:
                self._waiters.remove(event)
            except ValueError:
                if event.triggered:
                    self.signal()
            raise

    def signal(self, n: int = 1) -> None:
        """V operation: wake ``n`` waiters (or bank the count).

        Signalling is non-blocking and free at user level; costed
        kernel-to-user signals are charged by the caller.
        """
        for _ in range(n):
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self.value += 1

