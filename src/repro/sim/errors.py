"""Exceptions used by the discrete-event simulation engine."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulation-engine errors."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` at a target event.

    Carries the value of the event that ended the run.
    """

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The interrupting party supplies a cause, an arbitrary object the
    interrupted process can inspect (``args[0]``) to decide how to react.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
