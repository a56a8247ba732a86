"""Event primitives for the discrete-event simulation engine.

The model follows the classic generator-coroutine style: a *process* is a
Python generator that yields :class:`Event` objects and is resumed when the
yielded event fires.  Events carry either a success value or a failure
exception; failed events re-raise inside the waiting process.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from .errors import Interrupt, SimError

#: Sentinel meaning "this event has not been given a value yet".
PENDING = object()

#: Scheduling priorities (lower sorts earlier at equal times).
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event moves through three stages: *untriggered* (just created),
    *triggered* (given a value and placed on the schedule), and *processed*
    (its callbacks have run).  Processes wait on events by yielding them.
    """

    #: Slotted: the engine allocates one Event per scheduled occurrence —
    #: millions per benchmark run — and per-instance dicts dominate the
    #: allocation cost otherwise.  Subclasses declare their own slots.
    __slots__ = ("sim", "callbacks", "_value", "_ok", "_cancelled")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._cancelled = False

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the schedule."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been invoked."""
        return self.callbacks is None and not self._cancelled

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` retired the event before it fired."""
        return self._cancelled

    def cancel(self) -> bool:
        """Lazily cancel a scheduled event: its callbacks never run.

        The schedule entry is *not* removed — the engine skips the
        tombstone when its timestamp comes up (counted in the engine's
        ``skipped``/``cancelled`` stats) — so cancellation is O(1) no
        matter how deep the event sits in the heap.  Only events the
        caller owns outright should be cancelled: any callbacks already
        registered (e.g. a process waiting on the event) are dropped and
        never resumed.  Returns False if the event already fired.
        """
        if self.callbacks is None:
            return False
        self.callbacks = None
        self._cancelled = True
        self.sim.cancelled += 1
        return True

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise SimError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim.schedule_at(self, sim.now)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if not isinstance(exception, BaseException):
            raise ValueError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim.schedule_at(self, sim.now)
        return self


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("_delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:  # noqa: F821
        if not delay >= 0:  # Not ``delay < 0``: that is False for NaN.
            raise ValueError(f"negative delay {delay}")
        # Slots set directly rather than via Event.__init__: one timeout
        # exists per costed CPU charge, so the extra call is measurable.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._cancelled = False
        self._delay = delay
        sim.schedule_at(self, sim.now + delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class Triggered(Event):
    """An event its maker builds already triggered with value None (a
    :class:`~repro.sim.resources.Serial` turn's end, a
    ``Simulator.call_later``): ``Triggered()`` runs no ``__init__``
    frame, and the maker sets the five slots itself.  One is made for
    every CPU charge, link turn and timer, so the frame was a per-event
    cost."""

    __slots__ = ()
    __init__ = object.__init__


class Parked(Event):
    """A pending event ``Simulator.park`` builds with the running
    process already registered on it: ``Parked()`` runs no ``__init__``
    frame, as :class:`Triggered` does, and ``park`` sets the five slots."""

    __slots__ = ()
    __init__ = object.__init__


class Initialize(Event):
    """Internal event used to start a freshly created process:
    :class:`Process` sets its slots and places it, with no ``__init__``
    frame, one per thread spawned."""

    __slots__ = ()
    __init__ = object.__init__


class Interruption(Event):
    """Internal event that delivers an :class:`Interrupt` to a process."""

    __slots__ = ("_process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.sim)
        if process.triggered:
            raise SimError("cannot interrupt a terminated process")
        if process is self.sim.active_process:
            raise SimError("a process cannot interrupt itself")
        self.callbacks = [self._deliver]
        self._ok = False
        self._value = Interrupt(cause)
        self._process = process
        target = process._target
        if target.__class__ is Initialize and target.callbacks:
            # Not started: the interrupt, not its pending Initialize, is
            # its first resume, so no step of it runs.
            target.callbacks.clear()
        sim = self.sim
        sim.schedule_at(self, sim.now, URGENT)

    def _deliver(self, event: Event) -> None:
        process = self._process
        if process.triggered:
            return  # The process ended before the interrupt arrived.
        # Detach the process from whatever it was waiting on so that the
        # original event does not also resume it later.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
        # Registered nowhere now: yielding the same pending event again
        # must register it afresh (``_resume`` skips its own target).
        process._target = None
        process._resume(self)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The process succeeds with the generator's return value, or fails with
    the exception that escaped the generator.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: Optional[str] = None) -> None:  # noqa: F821
        try:
            generator.throw
        except AttributeError:
            raise ValueError(f"{generator!r} is not a generator") from None
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._cancelled = False
        self._generator = generator
        start = Initialize()
        start.sim = sim
        start.callbacks = [self._resume]
        start._value = None
        start._ok = True
        start._cancelled = False
        sim.schedule_at(start, sim.now, URGENT)
        #: The event this process waits on, registered on it: by this
        #: process when it yields the event, or by the engine when it
        #: makes one for the process to yield at once (a ``spend`` turn,
        #: a ``park``).  Cleared when an interrupt detaches it.
        self._target: Optional[Event] = start
        self.name = name or getattr(generator, "__name__", "process")

    def __repr__(self) -> str:
        return f"<Process {self.name} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim.active_process = self
        gen = self._generator
        while True:
            advance = gen.send if event._ok else gen.throw
            try:
                target = advance(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self._finish()
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._finish()
                break

            # ``target.callbacks`` doubles as the Event duck-type check:
            # anything without the attribute was never an Event (the
            # isinstance this replaces ran once per yield, engine-wide).
            try:
                callbacks = target.callbacks
            except AttributeError:
                # Throw the complaint in at the offending yield, through
                # the same advance-and-handle code as any failed event.
                event = Event(sim)
                event._ok = False
                event._value = SimError(
                    f"process {self.name!r} yielded {target!r}, "
                    "which is not an Event"
                )
                continue

            if callbacks is not None:
                # Event not yet processed: wait for it.  An event the
                # engine made for this process to yield (``_target``
                # already) carries its resume.
                if target is not self._target:
                    callbacks.append(self._resume)
                    self._target = target
                break
            # Already-processed event: continue immediately with its value.
            event = target
        sim.active_process = None

    def _finish(self) -> None:
        """The generator has ended and ``_ok``/``_value`` are set.

        With someone waiting, the process fires like any event, one
        zero-delay event later.  With nobody waiting (a kernel thread,
        a per-connection worker — most processes are never joined) it
        is *processed* here and now: no engine event is spent
        on a completion nobody observes, and a later ``yield proc`` or
        ``run(until=proc)`` sees a processed event and continues at
        once with its value or exception.  A failure nobody waits on is
        kept in ``sim.crashed``, unless an :class:`Interrupt` ended it.
        """
        if self.callbacks:
            sim = self.sim
            sim.schedule_at(self, sim.now)
        else:
            self.callbacks = None
            if not self._ok and not isinstance(self._value, Interrupt):
                self.sim.crashed.append(self)

