"""Unit tests for processes: chaining, interrupts, failure propagation."""

import pytest

from repro.sim import CPU, Interrupt, SimError, Simulator

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


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_an_interrupt_before_the_first_step_is_the_first_resume(sim_cls):
    """A process interrupted before its first step never takes it: the
    interrupt is thrown in where the generator starts, and the pending
    ``Initialize`` resumes nothing.  It used to run the first step and
    meet the interrupt at its first wait."""
    sim = sim_cls()
    steps = []

    def worker():
        steps.append("first step")
        yield sim.timeout(1.0)

    victim = sim.process(worker())
    victim.interrupt("stop")
    victim.interrupt("again")  # A second one finds it ended.
    sim.run()
    assert steps == [] and not victim.is_alive and sim.now == 0.0
    assert sim.crashed == []


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


@pytest.mark.crashes(raises=KeyError)
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


@pytest.mark.crashes(raises=ValueError)
@pytest.mark.parametrize("sim_cls", ENGINES)
def test_a_failure_nobody_waits_on_is_kept_in_crashed(sim_cls):
    """A driver that dies ends ``run()`` as if it had finished: the
    failure is kept in ``sim.crashed``, the one place it shows."""
    sim = sim_cls()

    def driver():
        yield sim.timeout(1.0)
        raise ValueError("driver died")

    proc = sim.process(driver())
    assert sim.run() is None and sim.now == 1.0
    assert not proc.ok and sim.crashed == [proc]


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_a_failure_someone_sees_is_not_a_crash(sim_cls):
    """Neither a failure a waiter is handed nor an interrupt that ends
    a process is kept in ``sim.crashed``, and nor is a success."""
    sim = sim_cls()

    def fails():
        yield sim.timeout(1.0)
        raise KeyError("seen")

    def parked():
        yield sim.event()

    def waiter(child):
        try:
            yield child
        except KeyError:
            return "caught"

    caught = sim.process(waiter(sim.process(fails())))
    stopped = sim.process(parked())
    sim.process(parked())  # Never ends: no entry either.
    sim.call_later(2.0, lambda _event: stopped.interrupt("stop"))
    sim.run()
    assert caught.value == "caught" and isinstance(stopped.value, Interrupt)
    assert sim.crashed == []


@pytest.mark.crashes(raises=ValueError)
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


# ----------------------------------------------------------------------
# The engine registers a process on the event it is about to yield
# ----------------------------------------------------------------------


def _interrupted_waiter(sim, wait):
    """A process that waits on ``wait()`` (which must come back
    pending), is interrupted at 0.5 and then sleeps to 5.0; returns the
    process, the event it waited on and its log of (instant, what)."""
    log = []
    waited = []

    def waiter():
        event = wait()
        waited.append(event)
        try:
            yield event
            log.append((sim.now, "woken"))
        except Interrupt as stop:
            log.append((sim.now, stop.args[0]))
        yield sim.timeout(5.0 - sim.now)
        log.append((sim.now, "slept"))

    victim = sim.process(waiter())

    def interrupter():
        yield sim.timeout(0.5)
        victim.interrupt("interrupted")

    sim.process(interrupter())
    sim.run(until=0.25)
    return victim, waited[0], log


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_a_process_interrupted_on_a_spend_turn_is_resumed_once(sim_cls):
    """The turn ``spend`` made for the running process carries its
    resume; the interrupt detaches it, so the turn's end at 1.0 resumes
    nothing and the process wakes once, at 0.5."""
    sim = sim_cls()
    cpu = CPU(sim)
    victim, turn, log = _interrupted_waiter(sim, lambda: cpu.spend(1.0))
    assert turn.callbacks == [victim._resume]
    sim.run()
    assert log == [(0.5, "interrupted"), (5.0, "slept")]
    assert turn.processed and cpu.busy_time == 1.0


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_a_process_interrupted_while_parked_is_resumed_once(sim_cls):
    sim = sim_cls()
    waiters = []
    victim, parked, log = _interrupted_waiter(sim, lambda: sim.park(waiters))
    assert waiters == [parked] and parked.callbacks == [victim._resume]
    sim.run(until=1.0)
    parked.succeed("late")  # Its waiter left: it wakes nobody.
    sim.run()
    assert log == [(0.5, "interrupted"), (5.0, "slept")]


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_a_park_yielded_again_after_an_interrupt_resumes_its_process(sim_cls):
    """The interrupt clears the process's registration, so yielding the
    same pending event again registers it afresh."""
    sim = sim_cls()
    waiters = []
    log = []

    def waiter():
        event = sim.park(waiters)
        try:
            yield event
        except Interrupt:
            log.append((sim.now, "interrupted"))
        value = yield event
        log.append((sim.now, value))

    victim = sim.process(waiter())

    def other():
        yield sim.timeout(0.5)
        victim.interrupt()
        yield sim.timeout(0.5)
        waiters.pop().succeed("woken")

    sim.process(other())
    sim.run()
    assert log == [(0.5, "interrupted"), (1.0, "woken")]
    assert not victim.is_alive


def test_park_outside_a_process_raises_sim_error():
    sim = Simulator()
    waiters = []
    with pytest.raises(SimError, match="running process"):
        sim.park(waiters)
    assert waiters == []


@pytest.mark.parametrize("sim_cls", ENGINES)
def test_a_spend_outside_any_process_is_an_unregistered_turn(sim_cls):
    """Made with no process running, the turn carries no resume; a
    process yielding it later registers as on any event."""
    sim = sim_cls()
    cpu = CPU(sim)
    turn = cpu.spend(1.0)
    assert turn is not None and turn.callbacks == []

    def proc():
        yield turn
        return sim.now

    assert sim.run(until=sim.process(proc())) == 1.0
