"""The discrete-event simulation engine.

:class:`Simulator` owns the event schedule and the simulated clock.  Time
is a float number of seconds; resolution is limited only by float
precision, which comfortably exceeds the 40 ns clock the paper used.

Scale refactor: the schedule is a *bucket heap*.  Instead of one heap
entry per event (``(time, priority, eid, event)`` tuples), the heap holds
each distinct timestamp once and a dict maps the timestamp to the events
due then.  The drain loop takes a timestamp's whole batch at once, so
the delay-0 cascades that dominate protocol workloads (every
``succeed``, resource grant, and store trigger lands at ``now``) cost
one heap operation per *timestamp* rather than per *event*.  The dict
value is the bare event until a second arrival upgrades it to a
:class:`_Bucket`, so sparse schedules don't pay for batching they never
use.  Batch callbacks run straight out of the bucket's own lists — the
lists *are* the batch buffer; nothing is copied per timestamp.

The *next slot* spares the heap an event that is already next.  While
the drain loop runs the sole callback of a single-event step (a *solo
dispatch*), the insertion holds a NORMAL event in the slot, not on the
heap, when it is earlier than every heap entry and within the drain's
limit.  A later newcomer leaves the held event in place; one at or
before its instant first moves it onto the heap, so it keeps its FIFO
place at a shared instant and an URGENT newcomer there runs first.  The
held event is therefore alone at the earliest pending instant, and when
the callback returns the drain takes it before looking at the heap.  A
thread's CPU turn the slot would hold is the process's own next step,
so :meth:`Simulator._spend` (``cpu.spend``) takes it in place: no event,
no yield, no resume through the thread's ``yield from`` chain.
A *step* is one timestamp taken from the heap or from the slot, or
taken in place; each counts in ``steps`` and ``events_processed``
alike, so no counter tells them apart.  An exception leaving a solo
dispatch puts the held event back on the heap.

An event costs its callback and nothing else: one loop
(:meth:`Simulator._drain`) serves :meth:`~Simulator.run` and
:meth:`~Simulator.run_all`; four insertion paths place every event:
:meth:`Simulator.schedule_at` one a caller made, and, built and placed
in one frame, :meth:`Simulator._turn` a :class:`~repro.sim.resources.Serial`
turn, :meth:`Simulator._spend` a thread's turn and
:meth:`Simulator.call_later` a delayed callback.  A turn ``_spend``
makes while a process runs comes back registered to that process, and
so does the pending event :meth:`Simulator.park` makes, so its resume
appends nothing: the caller must yield either at once, as a dropped one
would still fire and resume the process a second time.  Every engine
callback takes the event (a stage with an argument is a ``partial`` of
a callee ending in ``_event``); the clock and the running process are
plain attributes.

Ordering is byte-identical to the original tuple-heap engine: URGENT
before NORMAL at equal times, FIFO within a priority, and events
scheduled *during* a batch at the same timestamp join the live batch in
the same order the tuple heap would have given them
(``tests/sim/test_engine_batching.py`` locks this in against the original
engine, kept as the test oracle ``tests/sim/legacy_engine.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional, Union

from .errors import SimError, StopSimulation
from .events import (
    NORMAL,
    PENDING,
    Event,
    Parked,
    Process,
    Timeout,
    Triggered,
)

Until = Union[None, float, int, Event]

#: Bound once: the drain loop runs per timestamp and the module-attribute
#: lookup is measurable at millions of events per run.
_heappop = heapq.heappop
_heappush = heapq.heappush
_INF = float("inf")


class _Bucket:
    """All events due at one timestamp, split by priority.

    Both lists always exist (possibly empty): the insertion paths, the
    only places a bucket is made, set them as they create it — no
    ``__init__`` frame.  Their identity is stable for the bucket's
    lifetime — schedulers append in place, never replace — which lets the
    drain loop bind them to locals once per batch instead of re-reading
    slots on every event.
    """

    __slots__ = ("urgent", "normal")


class Simulator:
    """Event loop, schedule, and clock for one simulated world."""

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  Written by the engine only.
        self.now = float(initial_time)
        #: The process currently executing, if any.  Written by
        #: :class:`~repro.sim.events.Process` only.
        self.active_process: Optional[Process] = None
        #: timestamp -> the single event due then, or a _Bucket of them.
        self._buckets: dict[float, Union[Event, _Bucket]] = {}
        #: heap of distinct pending timestamps (each appears once).
        self._heap: list[float] = []
        #: The next slot: an event held off the heap during a solo
        #: dispatch (``_solo``), due at ``_next_t``, before every heap
        #: entry and at or before the drain's ``_limit``; else None.
        self._next: Optional[Event] = None
        self._next_t = 0.0
        self._solo = False
        self._limit = _INF
        # Engine statistics (see ``engine_stats``).  ``skipped`` counts
        # events popped with no callback list: duplicate schedules of an
        # already-processed event plus cancelled tombstones.  ``cancelled``
        # counts Event.cancel() calls, so genuine duplicate-schedule skips
        # are ``skipped - cancelled`` once the schedule drains.
        self.events_processed = 0
        self.steps = 0
        self.max_batch = 0
        self.skipped = 0
        self.cancelled = 0
        #: Processes failed, not by Interrupt, with nobody waiting on them.
        self.crashed: list[Process] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def engine_stats(self) -> dict[str, int]:
        """Snapshot of the engine counters (cheap; plain ints)."""
        return {
            "events": self.events_processed,
            "steps": self.steps,
            "batched": self.events_processed - self.steps,
            "max_batch": self.max_batch,
            "skipped": self.skipped,
            "cancelled": self.cancelled,
        }

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def park(self, waiters) -> Parked:
        """A pending event, appended to ``waiters``, for the running
        process to yield at once: ``yield sim.park(waiters)`` is a
        thread's wait on a list whose owner wakes it with ``succeed``.
        The event comes back registered to the process, so its resume
        appends nothing."""
        process = self.active_process
        if process is None:
            raise SimError("park() needs a running process to register")
        event = Parked()
        event.sim = self
        event.callbacks = [process._resume]
        event._value = PENDING
        event._ok = None
        event._cancelled = False
        process._target = event
        waiters.append(event)
        return event

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------

    def schedule_at(self, event: Event, t: float, priority: int = NORMAL) -> None:
        """Place a triggered event on the schedule at absolute time ``t``.

        The insertion path for an event a caller made (``_turn`` and
        ``call_later`` make and place their own).  Callers that computed the
        instant themselves (a TCP timer's deadline) get exactly the
        float ``t``, which ``now + (t - now)`` does not guarantee.
        """
        # Not ``t < now``: that is False for NaN, which would poison the heap.
        if not t >= self.now:
            raise ValueError(f"t={t} is in the past (now={self.now})")
        if self._solo:
            heap = self._heap
            held = self._next
            if held is not None and t <= self._next_t:
                # Not later than the held event: that joins the heap first,
                # at a fresh instant (it was earlier than every entry), so a
                # same-instant newcomer queues behind it.
                self._buckets[self._next_t] = held
                _heappush(heap, self._next_t)
                self._next = held = None
            if held is None and priority and t <= self._limit and (not heap or t < heap[0]):
                self._next = event
                self._next_t = t
                return
        buckets = self._buckets
        if t in buckets:
            b = buckets[t]
            if type(b) is _Bucket:
                if priority:
                    b.normal.append(event)
                else:
                    b.urgent.append(event)
                return
            # Second arrival: upgrade the bare event to a bucket.  The
            # existing entry was NORMAL (bare storage implies it), so it
            # leads the normal list; an URGENT newcomer still runs first.
            nb = buckets[t] = _Bucket()
            if priority:
                nb.urgent = []
                nb.normal = [b, event]
            else:
                nb.urgent = [event]
                nb.normal = [b]
            return
        # First arrival at this timestamp.  NORMAL events (the vast
        # majority) are stored bare — no bucket, no list.
        if priority:
            buckets[t] = event
        else:
            nb = buckets[t] = _Bucket()
            nb.urgent = [event]
            nb.normal = []
        _heappush(self._heap, t)

    @staticmethod
    def _turn(serial, duration: float, then=None) -> Triggered:
        """``serial.hold(duration, then=None)``: a ``duration``-long turn
        of ``serial``, FIFO behind every earlier one, made and placed as
        :meth:`schedule_at` places a NORMAL event, in one frame."""
        # Not ``duration < 0``: a NaN must be refused before it reaches
        # ``busy_until``, where it would poison every later turn.
        if not duration >= 0:
            raise ValueError(f"negative duration {duration}")
        sim = serial.sim
        t = serial.busy_until
        if t < sim.now:
            t = sim.now
        serial.busy_until = t = t + duration
        serial.busy_time += duration
        event = Triggered()
        event.sim = sim
        event.callbacks = [] if then is None else [then]
        event._value = None
        event._ok = True
        event._cancelled = False
        if sim._solo:
            heap = sim._heap
            held = sim._next
            if held is not None and t <= sim._next_t:
                sim._buckets[sim._next_t] = held
                _heappush(heap, sim._next_t)
                sim._next = held = None
            if held is None and t <= sim._limit and (not heap or t < heap[0]):
                sim._next = event
                sim._next_t = t
                return event
        buckets = sim._buckets
        if t in buckets:
            b = buckets[t]
            if type(b) is _Bucket:
                b.normal.append(event)
            else:
                nb = buckets[t] = _Bucket()
                nb.urgent = []
                nb.normal = [b, event]
        else:
            buckets[t] = event
            _heappush(sim._heap, t)
        return event

    @staticmethod
    def _spend(serial, duration: float) -> Optional[Triggered]:
        """``serial.spend(duration)``: a thread's ``duration``-long turn
        of ``serial``, for the caller to yield at once, or None when the
        turn is already taken.

        :meth:`_turn`'s arithmetic and placement, except during a solo
        dispatch of a running process: there a turn the next slot would
        hold is the drain's next step, the process's own resume, so it
        is taken in place (the clock moves and the step counts as the
        drain counts it) and no event is made.  A turn made while a
        process runs is registered to it already, so the caller must
        yield what comes back, at once: ``if cost and (turn :=
        cpu.spend(cost)) is not None: yield turn``."""
        if not duration >= 0:
            raise ValueError(f"negative duration {duration}")
        sim = serial.sim
        t = serial.busy_until
        if t < sim.now:
            t = sim.now
        serial.busy_until = t = t + duration
        serial.busy_time += duration
        slot = False
        if sim._solo:
            heap = sim._heap
            held = sim._next
            if held is not None and t <= sim._next_t:
                sim._buckets[sim._next_t] = held
                _heappush(heap, sim._next_t)
                sim._next = held = None
            if held is None and t <= sim._limit and (not heap or t < heap[0]):
                if sim.active_process is not None:
                    sim.now = t
                    sim.steps += 1
                    sim.events_processed += 1
                    return None
                slot = True
        event = Triggered()
        event.sim = sim
        event._value = None
        event._ok = True
        event._cancelled = False
        process = sim.active_process
        if process is None:
            event.callbacks = []
        else:
            # The caller yields the turn at once: register it now, so
            # its ``_resume`` appends nothing.
            event.callbacks = [process._resume]
            process._target = event
        if slot:
            sim._next = event
            sim._next_t = t
            return event
        buckets = sim._buckets
        if t in buckets:
            b = buckets[t]
            if type(b) is _Bucket:
                b.normal.append(event)
            else:
                nb = buckets[t] = _Bucket()
                nb.urgent = []
                nb.normal = [b, event]
        else:
            buckets[t] = event
            _heappush(sim._heap, t)
        return event

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a triggered event on the schedule ``delay`` from now."""
        self.schedule_at(event, self.now + delay, priority)

    def call_later(self, delay: float, then) -> Triggered:
        """Run ``then(event)`` ``delay`` seconds from now (a frame's
        propagation, a switch's forwarding latency, a DMA fetch, a TCP
        timer): one event, placed as :meth:`schedule_at` places a NORMAL
        one, in one frame.  Its ``cancel()`` retires the call."""
        t = self.now + delay
        if not t >= self.now:  # As in ``schedule_at``: NaN is refused too.
            raise ValueError(f"t={t} is in the past (now={self.now})")
        event = Triggered()
        event.sim = self
        event.callbacks = [then]
        event._value = None
        event._ok = True
        event._cancelled = False
        if self._solo:
            heap = self._heap
            held = self._next
            if held is not None and t <= self._next_t:
                self._buckets[self._next_t] = held
                _heappush(heap, self._next_t)
                self._next = held = None
            if held is None and t <= self._limit and (not heap or t < heap[0]):
                self._next = event
                self._next_t = t
                return event
        buckets = self._buckets
        if t in buckets:
            b = buckets[t]
            if type(b) is _Bucket:
                b.normal.append(event)
            else:
                nb = buckets[t] = _Bucket()
                nb.urgent = []
                nb.normal = [b, event]
        else:
            buckets[t] = event
            _heappush(self._heap, t)
        return event

    def _drain(self, limit: float) -> None:
        """Process timestamps in order while the earliest is at or
        before ``limit``: the engine's one loop."""
        heap = self._heap
        buckets = self._buckets
        self._limit = limit
        while heap and heap[0] <= limit:
            t = _heappop(heap)
            self.now = t
            self.steps += 1
            bucket = buckets[t]
            if type(bucket) is not _Bucket:
                # Single event.  Drop the dict entry *before* callbacks so
                # a delay-0 reschedule lands in a fresh entry.
                del buckets[t]
                while True:
                    self.events_processed += 1
                    # Detach the list rather than copying or clearing it:
                    # the event keeps None (its "processed" marker) and
                    # dispatch reads the original allocation.
                    callbacks, bucket.callbacks = bucket.callbacks, None
                    if callbacks is None:
                        # Already processed (duplicate schedule) or cancelled.
                        self.skipped += 1
                        break
                    # One callback is the rule; unpacking finds it without
                    # a counted call, and anything else falls through to
                    # the loop.
                    try:
                        (callback,) = callbacks
                    except ValueError:
                        pass
                    else:
                        # A solo dispatch: the slot may take its successor.
                        self._solo = True
                        try:
                            callback(bucket)
                        except BaseException:
                            self._solo = False
                            held = self._next
                            if held is not None:
                                self._next = None
                                buckets[self._next_t] = held
                                _heappush(heap, self._next_t)
                            raise
                        self._solo = False
                        bucket = self._next
                        if bucket is None:
                            break
                        # The next step is the held event: no heap entry
                        # is earlier, and none shares its instant.
                        self._next = None
                        self.now = self._next_t
                        self.steps += 1
                        continue
                    for callback in callbacks:
                        callback(bucket)
                    break
                continue

            # Batch: run URGENT entries first, re-checking the urgent bound
            # on every iteration so an URGENT scheduled mid-batch
            # (Initialize, Interruption) preempts the remaining NORMALs
            # exactly as the tuple heap's (time, priority, eid) order would.
            # Events scheduled at ``t`` during the batch append to these
            # same lists (identity is stable, so locals stay valid) and are
            # drained before the timestamp is done.
            u = bucket.urgent
            n = bucket.normal
            ui = ni = skipped = 0
            # An URGENT-only bucket (a process start) reads no len().
            ln = len(n) if n else 0
            try:
                while True:
                    # ``u`` is re-examined every iteration (an URGENT
                    # arrival must preempt immediately), by truth test
                    # first so the common all-NORMAL batch never calls
                    # len() on it; the NORMAL bound is cached and only
                    # refreshed once the cached run drains.
                    if u and ui < len(u):
                        event = u[ui]
                        ui += 1
                    elif ni < ln:
                        event = n[ni]
                        ni += 1
                    else:
                        ln = len(n) if n else 0
                        if ni < ln:
                            event = n[ni]
                            ni += 1
                        else:
                            break
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks is None:
                        skipped += 1
                        continue
                    try:
                        (callback,) = callbacks
                    except ValueError:
                        pass
                    else:
                        callback(event)
                        continue
                    for callback in callbacks:
                        callback(event)
            except BaseException:
                # A callback raised mid-batch (StopSimulation from
                # ``run(until=...)``, or a real error).  Keep the
                # unprocessed tail so a later run() resumes exactly where
                # the tuple heap would have: trim the consumed prefixes
                # and re-push ``t``.
                del u[:ui]
                del n[:ni]
                if u or n:
                    _heappush(heap, t)
                else:
                    del buckets[t]
                self.skipped += skipped
                self.events_processed += ui + ni
                if ui + ni > self.max_batch:
                    self.max_batch = ui + ni
                raise
            del buckets[t]
            self.skipped += skipped
            batch = ui + ni
            self.events_processed += batch
            if batch > self.max_batch:
                self.max_batch = batch

    def run(self, until: Until = None) -> Any:
        """Run until the schedule empties, a time passes, or an event fires.

        * ``until=None`` — run until no events remain.
        * ``until=<number>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until that event is processed and
          return its value (re-raising if the event failed).
        """
        stop = until
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed: nothing to run.
                if until._ok:
                    return until._value
                raise until._value
        elif until is not None:
            at = float(until)
            if not at >= self.now:
                raise ValueError(f"until={at} is in the past (now={self.now})")
            stop = Event(self)
            stop._ok, stop._value = True, None
            # ``now + (at - now)``, not ``at``: the instant a run stops at
            # has always been this float, and later delays count from it.
            self.schedule(stop, at - self.now)
        if stop is not None:
            stop.callbacks.append(_stop_simulation)

        try:
            self._drain(_INF)
        except StopSimulation as stopped:
            return stopped.value
        finally:
            # Ended short of its stop (a raise, no events left): take it back.
            if stop is not None and stop.callbacks is not None:
                stop.callbacks.remove(_stop_simulation)
        if isinstance(until, Event):
            raise RuntimeError(
                "simulation ran out of events before the target event fired"
            )
        return None

    def run_all(self, limit: float = _INF) -> None:
        """Run until the schedule empties or the clock exceeds ``limit``."""
        self._drain(limit)


def _stop_simulation(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    raise event._value
