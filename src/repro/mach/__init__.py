"""A Mach-3.0-like microkernel substrate over the simulation engine.

Provides exactly the facilities the paper says user-level protocols need
from a contemporary OS: tasks, unforgeable port capabilities, costed IPC,
user-level threads and synchronization, and shared/pinned VM regions.
"""

from .ipc import Message, receive, reply_to, rpc, send
from .kernel import Kernel
from .ports import (
    CapabilityViolation,
    DeadPortError,
    Port,
    PortRight,
    RightType,
)
from .sync import Semaphore
from .task import Task
from .vm import PAGE_SIZE, SharedRegion, vm_wire

__all__ = [
    "Kernel",
    "Task",
    "Port",
    "PortRight",
    "RightType",
    "CapabilityViolation",
    "DeadPortError",
    "Message",
    "send",
    "receive",
    "rpc",
    "reply_to",
    "Semaphore",
    "SharedRegion",
    "PAGE_SIZE",
    "vm_wire",
]
