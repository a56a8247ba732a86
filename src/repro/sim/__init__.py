"""A small discrete-event simulation engine.

Generator-based processes over a float-seconds clock.  This is the
substrate on which the Mach-like kernel, the simulated networks, and all
protocol organizations run.
"""

from .engine import Simulator
from .errors import EmptySchedule, Interrupt, SimError, StopSimulation
from .events import (
    NORMAL,
    PENDING,
    URGENT,
    Event,
    Process,
    Timeout,
)
from .resources import CPU, Serial, Store

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Store",
    "Serial",
    "CPU",
    "Interrupt",
    "SimError",
    "EmptySchedule",
    "StopSimulation",
    "PENDING",
    "NORMAL",
    "URGENT",
]
