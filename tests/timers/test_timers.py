"""Unit tests run against all three timer facilities."""

import pytest

from repro.timers import HashedWheel, HeapTimers, HierarchicalWheel

FACILITIES = [
    pytest.param(lambda: HeapTimers(), id="heap"),
    pytest.param(lambda: HashedWheel(tick=0.01, slots=32), id="hashed"),
    pytest.param(
        lambda: HierarchicalWheel(tick=0.01, slots=8, levels=4), id="hier"
    ),
]


@pytest.fixture(params=FACILITIES)
def timers(request):
    return request.param()


def test_single_timer_fires_at_deadline(timers):
    fired = []
    timers.schedule(0.5, lambda: fired.append(timers.now))
    timers.advance_to(0.4)
    assert fired == []
    timers.advance_to(0.6)
    assert fired == [pytest.approx(0.5)]


def test_timers_fire_in_deadline_order(timers):
    fired = []
    for delay in (0.30, 0.10, 0.20, 0.15):
        timers.schedule(delay, lambda d=delay: fired.append(d))
    timers.advance_to(1.0)
    assert fired == [0.10, 0.15, 0.20, 0.30]


def test_same_deadline_fires_in_schedule_order(timers):
    fired = []
    for tag in ("a", "b", "c"):
        timers.schedule(0.25, lambda t=tag: fired.append(t))
    timers.advance_to(1.0)
    assert fired == ["a", "b", "c"]


def test_cancel_prevents_firing(timers):
    fired = []
    handle = timers.schedule(0.5, lambda: fired.append("x"))
    handle.cancel()
    timers.advance_to(1.0)
    assert fired == []
    assert handle.cancelled


def test_cancel_after_firing_is_noop(timers):
    fired = []
    handle = timers.schedule(0.1, lambda: fired.append("x"))
    timers.advance_to(1.0)
    handle.cancel()
    assert fired == ["x"]
    assert handle.fired


def test_reschedule_from_callback(timers):
    fired = []

    def rearm():
        fired.append(timers.now)
        if len(fired) < 3:
            timers.schedule(0.2, rearm)

    timers.schedule(0.2, rearm)
    timers.advance_to(2.0)
    assert [pytest.approx(t) for t in (0.2, 0.4, 0.6)] == fired


def test_advance_returns_fire_count(timers):
    for delay in (0.1, 0.2, 0.9):
        timers.schedule(delay, lambda: None)
    assert timers.advance_to(0.5) == 2
    assert timers.advance_to(1.0) == 1


def test_negative_delay_rejected(timers):
    with pytest.raises(ValueError):
        timers.schedule(-0.1, lambda: None)


def test_past_deadline_rejected(timers):
    timers.advance_to(1.0)
    with pytest.raises(ValueError):
        timers.schedule_at(0.5, lambda: None)


def test_backwards_advance_rejected(timers):
    timers.advance_to(1.0)
    with pytest.raises(ValueError):
        timers.advance_to(0.5)


def test_timer_beyond_one_revolution(timers):
    # Longer than one full revolution of the hashed wheel (32 * 0.01).
    fired = []
    timers.schedule(0.77, lambda: fired.append(timers.now))
    timers.advance_to(0.5)
    assert fired == []
    timers.advance_to(1.0)
    assert fired == [pytest.approx(0.77)]


def test_dense_and_sparse_mix(timers):
    fired = []
    for i in range(50):
        timers.schedule(0.01 * (i + 1), lambda i=i: fired.append(i))
    timers.schedule(3.0, lambda: fired.append("late"))
    timers.advance_to(2.0)
    assert fired == list(range(50))
    timers.advance_to(3.5)
    assert fired[-1] == "late"


def test_incremental_advance_equivalent_to_jump():
    jump = HashedWheel(tick=0.01, slots=32)
    step = HashedWheel(tick=0.01, slots=32)
    jump_fired, step_fired = [], []
    for delay in (0.05, 0.11, 0.42, 0.43):
        jump.schedule(delay, lambda d=delay: jump_fired.append(d))
        step.schedule(delay, lambda d=delay: step_fired.append(d))
    jump.advance_to(1.0)
    t = 0.0
    while t < 1.0:
        t = round(t + 0.007, 10)
        step.advance_to(t)
    assert jump_fired == step_fired


def test_hierarchical_horizon_enforced():
    wheel = HierarchicalWheel(tick=0.01, slots=4, levels=2)
    assert wheel.horizon == pytest.approx(0.01 * 16)
    with pytest.raises(ValueError):
        wheel.schedule(1.0, lambda: None)


def test_hierarchical_cascade_fires_exactly_once():
    wheel = HierarchicalWheel(tick=0.01, slots=4, levels=3)
    fired = []
    # Deadline deep in the coarsest wheel; must cascade twice.
    wheel.schedule(0.55, lambda: fired.append(wheel.now))
    t = 0.0
    while t < 1.0:
        t = round(t + 0.01, 10)
        wheel.advance_to(t)
    assert fired == [pytest.approx(0.55)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        HashedWheel(tick=0)
    with pytest.raises(ValueError):
        HashedWheel(slots=1)
    with pytest.raises(ValueError):
        HierarchicalWheel(levels=0)


def test_ops_counter_increases():
    wheel = HashedWheel(tick=0.01, slots=16)
    before = wheel.ops
    wheel.schedule(0.05, lambda: None)
    assert wheel.ops > before
    wheel.advance_to(0.1)
    assert wheel.ops > before + 1
