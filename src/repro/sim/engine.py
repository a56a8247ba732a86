"""The discrete-event simulation engine.

:class:`Simulator` owns the event schedule and the simulated clock.  Time
is a float number of seconds; resolution is limited only by float
precision, which comfortably exceeds the 40 ns clock the paper used.

Scale refactor: the schedule is a *bucket heap*.  Instead of one heap
entry per event (``(time, priority, eid, event)`` tuples), the heap holds
each distinct timestamp once and a dict maps the timestamp to the events
due then.  One :meth:`Simulator.step` drains the whole batch, so the
delay-0 cascades that dominate protocol workloads (every ``succeed``,
resource grant, and store trigger lands at ``now``) cost one heap
operation per *timestamp* rather than per *event*.  The dict value is the
bare event until a second arrival upgrades it to a :class:`_Bucket`, so
sparse schedules don't pay for batching they never use.  Batch callbacks
run straight out of the bucket's own lists — the lists *are* the batch
buffer; nothing is copied per step.

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

from .errors import EmptySchedule, StopSimulation
from .events import (
    NORMAL,
    Event,
    Process,
    Timeout,
)

Until = Union[None, float, int, Event]

#: Bound once: ``step`` runs per batch and the module-attribute lookup is
#: measurable at millions of events per run.
_heappop = heapq.heappop
_heappush = heapq.heappush


class _Bucket:
    """All events due at one timestamp, split by priority.

    Both lists always exist (possibly empty).  Their identity is stable
    for the bucket's lifetime — schedulers append in place, never
    replace — which lets :meth:`Simulator.step` bind them to locals once
    per batch instead of re-reading slots on every event.
    """

    __slots__ = ("urgent", "normal")

    def __init__(self) -> None:
        self.urgent: list[Event] = []
        self.normal: list[Event] = []


class Simulator:
    """Event loop, schedule, and clock for one simulated world."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: timestamp -> the single event due then, or a _Bucket of them.
        self._buckets: dict[float, Union[Event, _Bucket]] = {}
        #: heap of distinct pending timestamps (each appears once).
        self._heap: list[float] = []
        self._active_process: Optional[Process] = None
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

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0] if self._heap else float("inf")

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

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a triggered event on the schedule ``delay`` from now."""
        t = self._now + delay
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            # First arrival at this timestamp.  NORMAL events (the vast
            # majority) are stored bare — no bucket, no list.
            if priority:
                buckets[t] = event
            else:
                nb = _Bucket()
                nb.urgent.append(event)
                buckets[t] = nb
            _heappush(self._heap, t)
        elif type(b) is _Bucket:
            if priority:
                b.normal.append(event)
            else:
                b.urgent.append(event)
        else:
            # Second arrival: upgrade the bare event to a bucket.  The
            # existing entry was NORMAL (bare storage implies it), so it
            # leads the normal list; an URGENT newcomer still runs first.
            nb = _Bucket()
            nb.normal.append(b)
            if priority:
                nb.normal.append(event)
            else:
                nb.urgent.append(event)
            buckets[t] = nb

    def schedule_at(self, event: Event, t: float) -> None:
        """Place a triggered event on the schedule at absolute time ``t``.

        NORMAL priority.  For callers that computed the instant itself
        (a :class:`~repro.sim.resources.Serial` completion): the event
        fires at exactly the float ``t``, which ``now + (t - now)``
        through :meth:`schedule` does not guarantee.
        """
        if t < self._now:
            raise ValueError(f"t={t} is in the past (now={self._now})")
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            buckets[t] = event
            _heappush(self._heap, t)
        elif type(b) is _Bucket:
            b.normal.append(event)
        else:
            nb = _Bucket()
            nb.normal.append(b)
            nb.normal.append(event)
            buckets[t] = nb

    def call_later(self, delay: float, fn, arg: Any) -> Event:
        """Run ``fn(arg)`` ``delay`` seconds from now: one event, one
        callback, no process (a frame's propagation, a switch's
        forwarding latency, a controller's DMA fetch, a TCP timer).
        The returned event's ``cancel()`` retires the call."""
        event = Event(self)
        event.callbacks.append(lambda _: fn(arg))
        event._ok = True
        event._value = None
        self.schedule(event, delay=delay)
        return event

    def step(self) -> None:
        """Advance to the next timestamp and process its whole batch."""
        try:
            t = _heappop(self._heap)
        except IndexError:
            raise EmptySchedule() from None
        self._now = t
        self.steps += 1
        bucket = self._buckets[t]
        if type(bucket) is not _Bucket:
            # Single event.  Drop the dict entry *before* callbacks so a
            # delay-0 reschedule lands in a fresh entry for the next step.
            del self._buckets[t]
            self.events_processed += 1
            # Detach the list rather than copying or clearing it: the
            # event keeps None (its "processed" marker) and the loop
            # walks the original allocation.
            callbacks, bucket.callbacks = bucket.callbacks, None
            if callbacks is None:
                # Already processed (duplicate schedule) or cancelled.
                self.skipped += 1
                return
            if len(callbacks) == 1:
                callbacks[0](bucket)
            else:
                for callback in callbacks:
                    callback(bucket)
            return

        # Batch: run URGENT entries first, re-checking the urgent bound
        # on every iteration so an URGENT scheduled mid-batch
        # (Initialize, Interruption) preempts the remaining NORMALs
        # exactly as the tuple heap's (time, priority, eid) order would.
        # Events scheduled at ``t`` during the batch append to these
        # same lists (identity is stable, so locals stay valid) and are
        # drained before the step returns.
        u = bucket.urgent
        n = bucket.normal
        ui = ni = skipped = 0
        ln = len(n)
        try:
            while True:
                # ``u`` is re-examined every iteration (an URGENT
                # arrival must preempt immediately), by truth test first
                # so the common all-NORMAL batch never calls len() on
                # it; the NORMAL bound is cached and only refreshed once
                # the cached run drains.
                if u and ui < len(u):
                    event = u[ui]
                    ui += 1
                elif ni < ln:
                    event = n[ni]
                    ni += 1
                else:
                    ln = len(n)
                    if ni < ln:
                        event = n[ni]
                        ni += 1
                    else:
                        break
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    skipped += 1
                    continue
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
        except BaseException:
            # A callback raised mid-batch (StopSimulation from
            # ``run(until=...)``, or a real error).  Keep the unprocessed
            # tail so a later run() resumes exactly where the tuple heap
            # would have: trim the consumed prefixes and re-push ``t``.
            del u[:ui]
            del n[:ni]
            if u or n:
                _heappush(self._heap, t)
            else:
                del self._buckets[t]
            self.skipped += skipped
            self.events_processed += ui + ni
            if ui + ni > self.max_batch:
                self.max_batch = ui + ni
            raise
        del self._buckets[t]
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
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed: nothing to run.
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
                stop_event.callbacks.append(_stop_simulation)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until={at} is in the past (now={self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event.callbacks.append(_stop_simulation)
                self.schedule(stop_event, delay=at - self._now)

        try:
            step = self.step  # bound once for the hot loop
            while True:
                step()
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if stop_event is not None and isinstance(until, Event):
                raise RuntimeError(
                    "simulation ran out of events before the target event fired"
                ) from None
            return None

    def run_all(self, limit: float = float("inf")) -> None:
        """Run until the schedule empties or the clock exceeds ``limit``."""
        heap, step = self._heap, self.step
        while heap and heap[0] <= limit:
            step()


def _stop_simulation(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    raise event._value
