"""CoalescedTimers: many armed timers, one engine wakeup.

The facility holds the timers; the engine sees exactly one Timeout for
the earliest pending deadline, lazily re-armed as earlier deadlines
arrive and retired by ``Event.cancel`` tombstones the engine skips.
"""

import pytest

from repro.sim import Simulator
from repro.timers import HashedWheel, HeapTimers, HierarchicalWheel

from .coalesce import CoalescedTimers


@pytest.fixture(params=[HeapTimers, HashedWheel, HierarchicalWheel])
def service(request):
    sim = Simulator()
    return sim, CoalescedTimers(sim, request.param())


def test_same_deadline_timers_share_one_engine_wakeup(service):
    sim, timers = service
    fired = []
    for i in range(50):
        timers.schedule(1e-2, lambda i=i: fired.append(i))
    assert timers.pending == 50
    assert timers.wakeups == 1  # One engine event for all fifty.
    sim.run()
    assert sorted(fired) == list(range(50))
    assert timers.fired == 50
    assert timers.pending == 0
    # The whole volley cost the engine a single processed event.
    assert sim.engine_stats()["events"] == 1


def test_earlier_deadline_rearms_and_tombstones_stale_wakeup(service):
    sim, timers = service
    fired = []
    timers.schedule(5e-2, lambda: fired.append("late"))
    timers.schedule(1e-2, lambda: fired.append("early"))
    # The second schedule beat the armed wakeup: re-armed, stale one
    # lazily cancelled (no heap surgery, just a tombstone).
    assert timers.wakeups == 2
    assert timers.wakeups_cancelled == 1
    sim.run()
    assert fired == ["early", "late"]
    assert sim.engine_stats()["cancelled"] == 1
    assert sim.engine_stats()["skipped"] >= 1


def test_later_deadline_rides_existing_wakeup(service):
    sim, timers = service
    fired = []
    timers.schedule(1e-2, lambda: fired.append("a"))
    timers.schedule(5e-2, lambda: fired.append("b"))
    assert timers.wakeups == 1  # No earlier deadline, nothing re-armed.
    sim.run()
    assert fired == ["a", "b"]
    assert timers.wakeups == 2  # The second volley armed after the first.


def test_cancelled_timer_does_not_fire(service):
    sim, timers = service
    fired = []
    handle = timers.schedule(1e-2, lambda: fired.append("doomed"))
    timers.schedule(1e-2, lambda: fired.append("keep"))
    handle.cancel()
    sim.run()
    assert fired == ["keep"]
    assert timers.fired == 1


def test_schedule_during_callback_rearms(service):
    sim, timers = service
    fired = []

    def chain():
        fired.append(len(fired))
        if len(fired) < 5:
            timers.schedule(1e-3, chain)

    timers.schedule(1e-3, chain)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert timers.fired == 5


def test_negative_delay_rejected(service):
    _sim, timers = service
    with pytest.raises(ValueError):
        timers.schedule(-1.0, lambda: None)
