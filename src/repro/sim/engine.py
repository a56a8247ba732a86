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

An event costs its callback and nothing else: one loop
(:meth:`Simulator._drain`) serves :meth:`~Simulator.run`,
:meth:`~Simulator.run_all` and :meth:`~Simulator.step`; one method
(:meth:`Simulator.schedule_at`) places every event; the clock and the
running process are plain attributes.

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

from .errors import StopSimulation
from .events import (
    NORMAL,
    Event,
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

    Both lists always exist (possibly empty): :meth:`Simulator.schedule_at`,
    the only place a bucket is made, sets them as it creates it — no
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

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------

    def schedule_at(self, event: Event, t: float, priority: int = NORMAL) -> None:
        """Place a triggered event on the schedule at absolute time ``t``.

        The one insertion path: every event the engine runs arrives
        here.  Callers that computed the instant themselves (a
        :class:`~repro.sim.resources.Serial` completion) get exactly the
        float ``t``, which ``now + (t - now)`` does not guarantee.
        """
        if t < self.now:
            raise ValueError(f"t={t} is in the past (now={self.now})")
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

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a triggered event on the schedule ``delay`` from now."""
        self.schedule_at(event, self.now + delay, priority)

    def call_later(self, delay: float, fn, arg: Any) -> Event:
        """Run ``fn(arg)`` ``delay`` seconds from now: one event, one
        callback, no process (a frame's propagation, a switch's
        forwarding latency, a controller's DMA fetch, a TCP timer).
        The returned event's ``cancel()`` retires the call."""
        event = Triggered()
        event.sim = self
        event.callbacks = [lambda _: fn(arg)]
        event._value = None
        event._ok = True
        event._cancelled = False
        self.schedule_at(event, self.now + delay)
        return event

    def _drain(self, limit: float) -> None:
        """Process timestamps in order while the earliest is at or
        before ``limit``: the engine's one loop."""
        heap = self._heap
        buckets = self._buckets
        while heap and heap[0] <= limit:
            t = _heappop(heap)
            self.now = t
            self.steps += 1
            bucket = buckets[t]
            if type(bucket) is not _Bucket:
                # Single event.  Drop the dict entry *before* callbacks so
                # a delay-0 reschedule lands in a fresh entry.
                del buckets[t]
                self.events_processed += 1
                # Detach the list rather than copying or clearing it: the
                # event keeps None (its "processed" marker) and dispatch
                # reads the original allocation.
                callbacks, bucket.callbacks = bucket.callbacks, None
                if callbacks is None:
                    # Already processed (duplicate schedule) or cancelled.
                    self.skipped += 1
                    continue
                # One callback is the rule; unpacking finds it without a
                # counted call, and anything else falls through to the loop.
                try:
                    (callback,) = callbacks
                except ValueError:
                    pass
                else:
                    callback(bucket)
                    continue
                for callback in callbacks:
                    callback(bucket)
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
            ln = len(n)
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
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed: nothing to run.
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(_stop_simulation)
        elif until is not None:
            at = float(until)
            if at < self.now:
                raise ValueError(f"until={at} is in the past (now={self.now})")
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(_stop_simulation)
            # ``now + (at - now)``, not ``at``: the instant a run stops at
            # has always been this float, and later delays count from it.
            self.schedule(stop_event, at - self.now)

        try:
            self._drain(_INF)
        except StopSimulation as stop:
            return stop.value
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
