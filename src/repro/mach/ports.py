"""Mach-style ports and port rights.

A *port* is a kernel-protected message queue with exactly one receive
right.  A *port right* is an unforgeable capability naming a port; the
paper relies on Mach ports as "the basis for secure and trusted
communication channels between the library, the server, and the network
I/O module".

Unforgeability is modelled faithfully: rights are objects handed out only
by the kernel (at allocation) or moved in messages; a task can only use
rights present in its capability space, which :mod:`repro.mach.ipc`
enforces on every operation.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from ..sim import Store

if TYPE_CHECKING:
    from .task import Task


class RightType(enum.Enum):
    """The kinds of port rights Mach defines that we need."""

    SEND = "send"
    RECEIVE = "receive"
    SEND_ONCE = "send-once"


class Port:
    """A kernel message queue with a single receive right."""

    _counter = 0

    def __init__(self, kernel, name: str = "") -> None:
        Port._counter += 1
        self.kernel = kernel
        self.name = name or f"port-{Port._counter}"
        self.queue: Store = Store(kernel.sim)
        #: The task currently holding the receive right (None once dead).
        self.receiver: Optional["Task"] = None
        self.dead = False

    def __repr__(self) -> str:
        state = "dead" if self.dead else f"rx={self.receiver.name if self.receiver else None}"
        return f"<Port {self.name} {state}>"

    def destroy(self) -> None:
        """Turn this into a dead port; pending and future sends fail."""
        self.dead = True
        self.receiver = None


class PortRight:
    """An unforgeable capability to a port.

    ``consumed`` marks a used send-once right.  Equality is identity:
    two rights to the same port are distinct capabilities.
    """

    def __init__(self, port: Port, right: RightType) -> None:
        self.port = port
        self.right = right
        self.consumed = False
        # A right's type never changes: its kind is read off once, here.
        self.is_receive = right is RightType.RECEIVE
        self.is_send = not self.is_receive

    def __repr__(self) -> str:
        return f"<{self.right.value} right to {self.port.name}>"


class CapabilityViolation(Exception):
    """A task attempted an operation it holds no right for."""


class DeadPortError(Exception):
    """A message was sent to (or received on) a destroyed port."""
