"""Unit tests for the discrete-event engine: clock, run modes, ordering."""

import pytest

from repro.sim import Event, SimError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_starts_at_initial_time():
    sim = Simulator(initial_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_run_until_time_stops_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_past_time_raises():
    sim = Simulator(initial_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    result = sim.run(until=sim.process(proc()))
    assert result == "done"
    assert sim.now == 1.0


def test_run_until_processed_event_returns_immediately():
    sim = Simulator()
    ev = sim.timeout(0.0, value=42)
    sim.run()
    assert sim.run(until=ev) == 42


def test_run_until_unreachable_event_raises():
    sim = Simulator()
    ev = sim.event()  # Never triggered.
    with pytest.raises(RuntimeError):
        sim.run(until=ev)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []

    def watcher(delay):
        yield sim.timeout(delay)
        fired.append(delay)

    for delay in (3.0, 1.0, 2.0):
        sim.process(watcher(delay))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_simultaneous_events_fire_in_creation_order():
    sim = Simulator()
    fired = []

    def watcher(tag):
        yield sim.timeout(1.0)
        fired.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(watcher(tag))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_value_unavailable_before_trigger():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimError):
        _ = ev.value
    with pytest.raises(SimError):
        _ = ev.ok


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)
    with pytest.raises(SimError):
        ev.fail(RuntimeError())


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(ValueError):
        ev.fail("not an exception")


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())

    def failer():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_run_all_respects_limit():
    sim = Simulator()
    seen = []

    def ticker():
        for _ in range(10):
            yield sim.timeout(1.0)
            seen.append(sim.now)

    sim.process(ticker())
    sim.run_all(limit=3.0)
    assert seen == [1.0, 2.0, 3.0]
