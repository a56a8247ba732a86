"""Unit tests for processes: chaining, interrupts, failure propagation."""

import pytest

from repro.sim import Interrupt, SimError, Simulator

from .legacy_engine import LegacySimulator


def test_process_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 99

    p = sim.process(proc())
    assert sim.run(until=p) == 99


def test_process_is_alive_until_done():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_waiting_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return result

    assert sim.run(until=sim.process(parent())) == "child-result"


def test_yield_from_subgenerator():
    sim = Simulator()

    def helper():
        yield sim.timeout(1.0)
        return 7

    def proc():
        value = yield from helper()
        return value * 2

    assert sim.run(until=sim.process(proc())) == 14


def test_exception_in_process_propagates_to_waiter():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("broken")

    def parent():
        with pytest.raises(ValueError):
            yield sim.process(bad())
        return "recovered"

    assert sim.run(until=sim.process(parent())) == "recovered"


def test_unhandled_process_exception_surfaces_at_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("escapes")

    p = sim.process(bad())
    with pytest.raises(ValueError):
        sim.run(until=p)


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.args[0]))

    victim = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(3.0)
        victim.interrupt("wake up")

    sim.process(interrupter())
    sim.run()
    assert log == [(3.0, "wake up")]


def test_interrupted_process_not_resumed_by_original_event():
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
            yield sim.timeout(10.0)
            resumes.append("second-sleep")

    victim = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(1.0)
        victim.interrupt()

    sim.process(interrupter())
    sim.run()
    assert resumes == ["interrupt", "second-sleep"]
    assert sim.now == 11.0


def test_interrupt_on_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimError):
        p.interrupt()


def test_self_interrupt_rejected():
    sim = Simulator()

    def proc():
        with pytest.raises(SimError):
            me.interrupt()
        yield sim.timeout(1.0)

    me = sim.process(proc())
    sim.run()


def test_interrupt_races_with_completion_is_dropped():
    # Interrupt scheduled for the same instant the process completes:
    # the process ends first and the interrupt must be silently dropped.
    sim = Simulator()

    def sleeper():
        yield sim.timeout(1.0)

    victim = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(1.0)
        if victim.is_alive:
            victim.interrupt()

    sim.process(interrupter())
    sim.run()  # Must not raise.


def test_yielding_non_event_raises_inside_process():
    sim = Simulator()

    def proc():
        try:
            yield "not an event"
        except SimError:
            return "caught"

    assert sim.run(until=sim.process(proc())) == "caught"


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_name_defaults_and_overrides():
    sim = Simulator()

    def my_proc():
        yield sim.timeout(0)

    p = sim.process(my_proc())
    assert "my_proc" in repr(p) or "process" in repr(p)
    q = sim.process(my_proc(), name="custom")
    assert "custom" in repr(q)
    sim.run()


def test_yield_already_processed_event_continues_immediately():
    sim = Simulator()
    ev = sim.timeout(0.0, value="early")
    sim.run()

    def proc():
        value = yield ev
        return value

    assert sim.run(until=sim.process(proc())) == "early"


# ----------------------------------------------------------------------
# A process nobody waits for finishes without an engine event
# ----------------------------------------------------------------------

ENGINES = [Simulator, LegacySimulator]


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_unjoined_process_is_processed_on_the_spot(sim_cls):
    sim = sim_cls()

    def worker():
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(worker())
    sim.run()
    assert p.processed is True
    assert p.ok and p.value == "done"
    # Initialize and the timeout; no completion event for nobody.
    assert sim.engine_stats()["events"] == 2


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_joined_process_still_fires_as_an_event(sim_cls):
    sim = sim_cls()

    def child():
        yield sim.timeout(1.0)
        return "child"

    def parent():
        return (yield sim.process(child()))

    p = sim.process(parent())
    sim.run()
    assert p.value == "child"
    # Two Initializes, the timeout, and the child's completion event
    # that wakes the parent; the parent's own completion is unobserved.
    assert sim.engine_stats()["events"] == 4


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_late_yield_of_finished_process_continues_immediately(sim_cls):
    sim = sim_cls()

    def early():
        yield sim.timeout(1.0)
        return "early"

    def failing():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    done, failed = sim.process(early()), sim.process(failing())
    sim.run()
    assert done.processed and failed.processed and not failed.ok

    def late():
        before = sim.now
        value = yield done
        try:
            yield failed
        except KeyError as exc:
            return value, exc.args[0], sim.now - before

    events_before = sim.engine_stats()["events"]
    assert sim.run(until=sim.process(late())) == ("early", "lost", 0.0)
    # Only the late process's own Initialize and completion ran.
    assert sim.engine_stats()["events"] == events_before + 2


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_run_until_finished_process_returns_or_raises(sim_cls):
    sim = sim_cls()

    def good():
        yield sim.timeout(1.0)
        return 5

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("escapes")

    p, q = sim.process(good()), sim.process(bad())
    sim.run()
    assert sim.run(until=p) == 5
    with pytest.raises(ValueError):
        sim.run(until=q)
    # And the unfinished case is unchanged: run() drives it to the end.
    r = sim.process(good())
    assert sim.run(until=r) == 5


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_interrupt_of_unjoined_finished_process_rejected(sim_cls):
    sim = sim_cls()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    assert p.processed and not p.is_alive
    with pytest.raises(SimError):
        p.interrupt()


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_generator_may_catch_the_non_event_complaint_and_go_on(sim_cls):
    sim = sim_cls()

    def proc():
        try:
            yield "not an event"
        except SimError:
            pass
        yield sim.timeout(1.0)
        return sim.now

    assert sim.run(until=sim.process(proc())) == 1.0
