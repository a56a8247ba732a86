"""The bucket-heap engine against the original tuple-heap engine.

:class:`~tests.sim.legacy_engine.LegacySimulator` is the pre-refactor
engine kept verbatim; these tests use it as the ordering oracle.  The batched
engine must execute every workload in byte-identical order — URGENT
before NORMAL at equal times, FIFO within a priority, events scheduled
mid-batch joining the live batch exactly where the tuple heap would
have put them — and its lazy-cancellation bookkeeping must add up.
"""

import random

import pytest

from repro.sim import (
    NORMAL,
    URGENT,
    Simulator,
    Timeout,
)
from repro.sim.events import Event

from .legacy_engine import LegacySimulator


def _recorded_event(sim, order, label, rng=None, depth=0):
    """An event whose callback records ``label`` and, when ``rng`` is
    given, schedules a few more events with seeded-random delay and
    priority.  Both engines replay the same seed: as long as execution
    order matches, the RNG draws align, so any ordering divergence
    shows up as differing transcripts."""
    event = Event(sim)
    event._ok = True

    def callback(_ev):
        order.append(label)
        if rng is None or depth >= 2:
            return
        for k in range(rng.randrange(0, 3)):
            child = _recorded_event(
                sim, order, f"{label}.{k}", rng, depth + 1
            )
            delay = rng.choice([0.0, 0.0, 1e-3, 2e-3])
            priority = rng.choice([NORMAL, NORMAL, NORMAL, URGENT])
            if priority == NORMAL and rng.random() < 0.5:
                # The absolute-time entry lands on the same timestamps
                # (and live batches) as the relative one.
                sim.schedule_at(child, sim.now + delay)
            else:
                sim.schedule(child, delay=delay, priority=priority)

    event.callbacks.append(callback)
    return event


def _run_script(sim_cls, seed):
    rng = random.Random(seed)
    sim = sim_cls()
    order = []
    # Seed phase: events piled onto few distinct timestamps so buckets
    # actually form, with a sprinkle of URGENT.
    for i in range(40):
        event = _recorded_event(sim, order, f"seed{i}", rng)
        delay = rng.choice([0.0, 1e-3, 1e-3, 2e-3, 5e-3])
        priority = URGENT if rng.random() < 0.2 else NORMAL
        sim.schedule(event, delay=delay, priority=priority)
    sim.run()
    return order


@pytest.mark.parametrize("seed", range(8))
def test_batched_order_identical_to_legacy(seed):
    assert _run_script(Simulator, seed) == _run_script(LegacySimulator, seed)


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_urgent_before_normal_fifo_within_priority(sim_cls):
    sim = sim_cls()
    order = []
    for i in range(3):
        sim.schedule(_recorded_event(sim, order, f"n{i}"), delay=1e-3)
    for i in range(3):
        sim.schedule(
            _recorded_event(sim, order, f"u{i}"), delay=1e-3, priority=URGENT
        )
    sim.schedule(_recorded_event(sim, order, "n3"), delay=1e-3)
    sim.run()
    assert order == ["u0", "u1", "u2", "n0", "n1", "n2", "n3"]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_urgent_scheduled_mid_batch_preempts_remaining_normals(sim_cls):
    sim = sim_cls()
    order = []

    first = Event(sim)
    first._ok = True

    def inject(_ev):
        order.append("first")
        # Scheduled at the live batch's own timestamp: must run before
        # the NORMALs that were already queued ahead of it.
        sim.schedule(
            _recorded_event(sim, order, "late-urgent"), priority=URGENT
        )

    first.callbacks.append(inject)
    sim.schedule(first, delay=1e-3)
    sim.schedule(_recorded_event(sim, order, "n0"), delay=1e-3)
    sim.schedule(_recorded_event(sim, order, "n1"), delay=1e-3)
    sim.run()
    assert order == ["first", "late-urgent", "n0", "n1"]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_mid_batch_same_time_normal_joins_batch_tail(sim_cls):
    sim = sim_cls()
    order = []

    head = Event(sim)
    head._ok = True

    def inject(_ev):
        order.append("head")
        sim.schedule(_recorded_event(sim, order, "tail"))  # delay 0.

    head.callbacks.append(inject)
    sim.schedule(head, delay=1e-3)
    sim.schedule(_recorded_event(sim, order, "mid"), delay=1e-3)
    sim.run()
    assert order == ["head", "mid", "tail"]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_schedule_at_fires_at_the_exact_float(sim_cls):
    sim = sim_cls()
    order = []
    fired_at = []
    # 0.1 + 0.2 is not the float 0.3: an absolute instant must survive
    # scheduling unchanged, which ``now + (t - now)`` does not promise.
    target = 0.1 + 0.2

    def hop(_ev):
        probe = _recorded_event(sim, order, "probe")
        probe.callbacks.append(lambda _: fired_at.append(sim.now))
        sim.schedule_at(probe, target)
        sim.schedule_at(_recorded_event(sim, order, "same-instant"), sim.now)

    first = Event(sim)
    first._ok = True
    first.callbacks.append(hop)
    sim.schedule(first, delay=0.1)
    sim.schedule(_recorded_event(sim, order, "queued"), delay=0.1)
    sim.run()
    assert fired_at == [target]
    assert order == ["queued", "same-instant", "probe"]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_schedule_at_rejects_the_past(sim_cls):
    sim = sim_cls(initial_time=1.0)
    with pytest.raises(ValueError):
        sim.schedule_at(Event(sim), 0.5)


def test_cancelled_timer_never_fires_and_is_counted():
    sim = Simulator()
    fired = []
    keep = Timeout(sim, 1e-3, value="keep")
    keep.callbacks.append(lambda ev: fired.append(ev._value))
    doomed = Timeout(sim, 1e-3, value="doomed")
    doomed.callbacks.append(lambda ev: fired.append(ev._value))

    assert doomed.cancel()
    assert doomed.cancelled and not doomed.processed
    assert not doomed.cancel()  # Idempotent: one tombstone, one count.
    sim.run()

    assert fired == ["keep"]
    stats = sim.engine_stats()
    assert stats["cancelled"] == 1
    assert stats["skipped"] == 1  # The tombstone was popped and skipped.
    assert stats["events"] == 2


def test_duplicate_schedule_is_skipped_and_counted():
    sim = Simulator()
    runs = []
    event = Event(sim)
    event._ok = True
    event.callbacks.append(lambda ev: runs.append(1))
    sim.schedule(event, delay=1e-3)
    sim.schedule(event, delay=2e-3)  # Duplicate: same event, later slot.
    sim.run()

    assert runs == [1]  # Callbacks detach on first processing.
    stats = sim.engine_stats()
    assert stats["skipped"] == 1
    assert stats["cancelled"] == 0  # A duplicate, not a cancellation.
    assert stats["events"] == 2


def test_stop_mid_batch_preserves_same_time_remainder():
    """``run(until=...)`` stopping inside a batch must leave the
    unprocessed same-timestamp tail schedulable, exactly like the tuple
    heap's one-event-per-step behaviour."""
    results = {}
    for sim_cls in (Simulator, LegacySimulator):
        sim = sim_cls()
        order = []
        sim.schedule(_recorded_event(sim, order, "a"), delay=1e-3)
        stop = Event(sim)
        stop._ok = True
        sim.schedule(stop, delay=1e-3)
        sim.schedule(_recorded_event(sim, order, "b"), delay=1e-3)
        sim.schedule(_recorded_event(sim, order, "c"), delay=1e-3)
        sim.run(until=stop)
        first_phase = list(order)
        sim.run()
        results[sim_cls.__name__] = (first_phase, order)

    batched, legacy = results["Simulator"], results["LegacySimulator"]
    assert batched == legacy
    assert batched[0] == ["a"]  # Stopped before b and c...
    assert batched[1] == ["a", "b", "c"]  # ...which survive the stop.


def test_engine_stats_track_batching():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(_recorded_event(sim, order, f"e{i}"), delay=1e-3)
    sim.schedule(_recorded_event(sim, order, "solo"), delay=2e-3)
    sim.run()
    stats = sim.engine_stats()
    assert stats["events"] == 11
    assert stats["steps"] == 2  # One batch of 10, one singleton.
    assert stats["batched"] == 9
    assert stats["max_batch"] == 10


def test_legacy_simulator_counts_events_too():
    sim = LegacySimulator()
    order = []
    for i in range(5):
        sim.schedule(_recorded_event(sim, order, f"e{i}"), delay=1e-3)
    sim.run()
    stats = sim.engine_stats()
    assert stats["events"] == 5
    assert stats["steps"] == 5  # One heap pop per event, by design.
    assert stats["batched"] == 0
