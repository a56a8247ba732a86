"""MachineRunner's timer contract: an armed TCP timer keeps one engine
event.  A re-arm to a deadline at or after that event's instant stores
the deadline and a cancel clears it; the event re-schedules or retires
when it comes up.  Only an earlier deadline and ``stop_timers`` cancel.

A scripted machine stands in for ``TcpMachine``: ``handle`` hands back
whatever action list the test fed it and logs each ``TimerExpires`` with
the instant it arrived, so the tests see exactly what the runner did
with ``SetTimer`` / ``CancelTimer`` / ``NotifyClosed``.  ``EagerRunner``
(``eager_timers.py``) keeps the earlier rule, one fresh event per arm
and a cancel per re-arm, as the oracle the kept-event rule must match.
"""

import gc
import random
import weakref

import pytest

from repro.costs import DECSTATION_5000_200 as COSTS
from repro.mach.kernel import Kernel
from repro.org.runner import MachineRunner
from repro.protocols.tcp import CancelTimer, NotifyClosed, SetTimer, TimerExpires
from repro.sim import Simulator
from repro.testbed import IP_B, Testbed

from .eager_timers import EagerRunner, eager_timers


class ScriptedMachine:
    def __init__(self):
        self.expired = []

    def handle(self, event, now):
        if isinstance(event, TimerExpires):
            self.expired.append((event.name, now))
            return []
        return event


def make_runner(runner_class=MachineRunner):
    sim = Simulator()

    def emit(segment, lead_cost, retransmit):
        raise AssertionError("no test here emits a segment")
        yield

    runner = runner_class(Kernel(sim, COSTS), ScriptedMachine(), emit)
    return sim, runner


def feed(sim, runner, *actions, at=0.0):
    def later():
        yield sim.timeout(at - sim.now)
        yield from runner.handle(list(actions))

    sim.process(later())


def watch_firings(runner):
    """Log (name, instant) of every time the runner's timer event comes
    up, a re-schedule included."""
    fired = []
    callback = runner._timer_fired

    def logged(name, _event):
        fired.append((name, runner.sim.now))
        callback(name, _event)

    runner._timer_fired = logged
    return fired


def test_rearmed_timer_fires_once_at_the_new_deadline():
    sim, runner = make_runner()
    fired = watch_firings(runner)
    feed(sim, runner, SetTimer("rexmt", 1.0))
    feed(sim, runner, SetTimer("rexmt", 1.0), at=0.5)
    sim.run()
    # One SetTimer's CPU charge delays neither deadline: the timer is
    # armed before the charge, at the instant the machine decided.
    assert runner.machine.expired == [("rexmt", 1.5)]
    # The re-arm stored its deadline: the one event came up at 1.0,
    # moved on to 1.5 and fired there.  No tombstone.
    assert fired == [("rexmt", 1.0), ("rexmt", 1.5)]
    assert sim.engine_stats()["cancelled"] == 0
    assert sim.engine_stats()["skipped"] == 0


def test_cancel_charges_only_for_a_name_that_was_armed():
    sim, runner = make_runner()
    cpu = runner.kernel.cpu
    feed(sim, runner, CancelTimer("persist"))
    sim.run()
    assert cpu.busy_time == 0.0
    feed(sim, runner, SetTimer("persist", 1.0), at=1.0)
    feed(sim, runner, CancelTimer("persist"), at=1.5)
    # Once armed, a name stays known: cancelling it again is charged.
    feed(sim, runner, CancelTimer("persist"), at=1.6)
    sim.run()
    assert runner.machine.expired == []
    assert cpu.busy_time == 3 * COSTS.timer_op
    # The cancel cleared the deadline; the kept event retired at 2.0.
    assert sim.engine_stats()["cancelled"] == 0
    assert runner._timers == {"persist": None}


def test_timer_past_any_wheel_horizon_fires_at_its_exact_instant():
    three_days = 3 * 86400.0
    sim, runner = make_runner()
    feed(sim, runner, SetTimer("keepalive", three_days), at=0.25)
    sim.run()
    assert runner.machine.expired == [("keepalive", 0.25 + three_days)]


def test_close_cancels_everything_and_a_later_firing_is_dropped():
    sim, runner = make_runner()
    feed(sim, runner, SetTimer("rexmt", 1.0), SetTimer("keepalive", 2.0))
    # The machine's last action list may still arm a timer after the
    # close (TIME-WAIT bookkeeping); it reaches no closed connection.
    feed(sim, runner, NotifyClosed("reset"), SetTimer("2msl", 1.0), at=0.5)
    sim.run()
    assert sim.now == 2.0  # The tombstones were popped, nothing ran.
    assert runner.machine.expired == []
    assert runner.closed_reason == "reset"
    assert sim.engine_stats()["cancelled"] == 2


def test_an_expiry_is_a_thread_of_the_runner_task_and_none_after_it_exits():
    """A timer expiry runs on a thread of the runner's task; one that
    comes due after the task exited runs nothing and crashes nothing."""
    sim, runner = make_runner()
    task = runner.task = runner.kernel.create_task("app")
    on_its_thread = []
    handle = runner.machine.handle

    def handled(event, now):
        if isinstance(event, TimerExpires):
            on_its_thread.append(sim.active_process in task.threads)
        return handle(event, now)

    runner.machine.handle = handled
    feed(sim, runner, SetTimer("rexmt", 1.0), SetTimer("keepalive", 2.0))
    sim.call_later(1.5, lambda _event: task.terminate())
    sim.run()
    assert runner.machine.expired == [("rexmt", 1.0)]
    assert on_its_thread == [True]
    assert sim.now == 2.0 and not sim.crashed


def test_stopped_timers_resume_in_another_runner_at_their_deadlines():
    sim, old = make_runner()
    new = MachineRunner(old.kernel, ScriptedMachine(), old.emit_fn)
    feed(sim, old, SetTimer("delack", 0.2), SetTimer("keepalive", 5.0))
    feed(sim, old, CancelTimer("delack"), at=0.1)
    carried = {}

    def hand_over():
        yield sim.timeout(1.0)
        carried.update(old.stop_timers())
        yield sim.timeout(1.0)
        # A timer that came due in between would fire on the spot.
        new.resume_timers({**carried, "rexmt": 1.5})

    sim.process(hand_over())
    sim.run()
    assert carried == {"keepalive": 5.0}
    assert old.machine.expired == []
    assert new.machine.expired == [("rexmt", 2.0), ("keepalive", 5.0)]


NAMES = ("rexmt", "delack", "persist", "keepalive")


def random_script(rng):
    """(instant, step) pairs on a quarter-second grid, so deadlines
    often meet: a step is a list of timer actions, "stop" (the runner's
    live timers are stopped and carried), or "resume" (the carried ones
    are re-armed)."""
    script, now = [], 0.0
    for _ in range(rng.randrange(4, 24)):
        now += rng.choice((0.0, 0.25, 0.5, 1.0))
        roll = rng.random()
        if roll < 0.08:
            script.append((now, "stop"))
        elif roll < 0.16:
            script.append((now, "resume"))
        else:
            script.append((now, [
                SetTimer(rng.choice(NAMES), rng.choice((0.0, 0.25, 0.5, 0.75, 1.5, 3.0)))
                if rng.random() < 0.65 else CancelTimer(rng.choice(NAMES))
                for _ in range(rng.randrange(1, 4))
            ]))
    return script


def run_script(runner_class, script):
    """Each step is a process of its own, all started at 0: at a shared
    instant the steps run in script order, before any timer event."""
    sim, runner = make_runner(runner_class)
    carried = {}

    def step_at(at, step):
        yield sim.timeout(at)
        if step == "stop":
            carried.update(runner.stop_timers())
        elif step == "resume":
            runner.resume_timers(carried)
            carried.clear()
        else:
            yield from runner.handle(step)

    for at, step in script:
        sim.process(step_at(at, step))
    sim.run()
    return runner.machine.expired, runner.kernel.cpu.busy_time, sim.engine_stats()


@pytest.mark.parametrize("seed", range(40))
def test_kept_events_expire_as_the_eager_rule_does(seed):
    """Any script of arms, cancels, stops and resumes: the same
    (name, instant) expiries and the same CPU time as the eager rule.
    Order among timers due at one instant may differ (pinned below)."""
    script = random_script(random.Random(seed))
    kept, kept_busy, kept_stats = run_script(MachineRunner, script)
    eager, eager_busy, eager_stats = run_script(EagerRunner, script)
    assert sorted(kept) == sorted(eager)
    assert kept_busy == eager_busy
    assert kept_stats["cancelled"] <= eager_stats["cancelled"]


def test_timers_due_at_one_instant_may_fire_in_another_order():
    """The one difference from the eager rule.  A re-armed timer takes
    its place among the events due at its deadline when its kept event
    comes up, not when the machine re-armed it: here "rexmt" is re-armed
    to 1.0 before "delack" is armed to 1.0, yet its event reaches 1.0
    only at 0.5, behind "delack"'s."""
    script = [
        (0.0, [SetTimer("rexmt", 0.5)]),
        (0.25, [SetTimer("rexmt", 0.75)]),
        (0.375, [SetTimer("delack", 0.625)]),
    ]
    kept, _, kept_stats = run_script(MachineRunner, script)
    eager, _, eager_stats = run_script(EagerRunner, script)
    assert eager == [("rexmt", 1.0), ("delack", 1.0)]
    assert kept == [("delack", 1.0), ("rexmt", 1.0)]
    assert (kept_stats["cancelled"], eager_stats["cancelled"]) == (0, 1)


def test_a_closed_runner_is_not_held_by_its_timers():
    """A cancelled timer's kept event still refers to its runner until
    it comes up; the close retires it, so the runner can go at once
    rather than at the 75 s connection-timer instant."""
    sim, runner = make_runner()
    feed(sim, runner, SetTimer("conn", 75.0), SetTimer("keepalive", 7200.0))
    feed(sim, runner, CancelTimer("conn"), at=0.5)
    feed(sim, runner, NotifyClosed("reset"), at=1.0)
    sim.run(until=2.0)
    alive = weakref.ref(runner)
    del runner
    gc.collect()
    assert alive() is None
    assert sim.now == 2.0


def pingpong(network, trips=20):
    """A userlib 1-byte echo, driven from each host's application task:
    the bytes echoed, the instant the last echo arrived, and the
    engine's cancelled count after each trip."""
    bed = Testbed(network=network, organization="userlib")
    echoes, cancelled, runners = bytearray(), {}, set()

    def server():
        listener = yield from bed.service_b.listen(4200)
        conn = yield from listener.accept()
        for _ in range(trips):
            yield from conn.send((yield from conn.recv_exactly(1)))

    def client():
        conn = yield from bed.service_a.connect(IP_B, 4200)
        runners.add(type(conn.runner))
        for trip in range(1, trips + 1):
            yield from conn.send(bytes([trip]))
            echoes.extend((yield from conn.recv_exactly(1)))
            cancelled[trip] = bed.sim.engine_stats()["cancelled"]

    bed.app_b.spawn(server(), name="server")
    bed.run(until=bed.app_a.spawn(client(), name="client"))
    return bytes(echoes), bed.sim.now, cancelled, runners


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_steady_pingpong_leaves_no_tombstones(network):
    """A userlib 1-byte echo re-arms and cancels its retransmit and
    delayed-ACK timers on every trip at both ends: from the second
    trip to the twentieth, no engine event is cancelled."""
    _, _, cancelled, _ = pingpong(network)
    assert cancelled[20] == cancelled[2]


def test_the_eager_rule_moves_nothing_but_the_tombstones():
    """The same ping-pong with every runner swapped for the eager rule:
    the same bytes at the same instant, but every re-arm and cancel
    from trip 2 to trip 20 leaves a tombstone.  A swap that did not take
    effect would read 0 there."""
    kept, kept_end, kept_cancelled, kept_runners = pingpong("ethernet")
    with eager_timers():
        eager, eager_end, eager_cancelled, eager_runners = pingpong("ethernet")
    assert (kept_runners, eager_runners) == ({MachineRunner}, {EagerRunner})
    assert eager == kept == bytes(range(1, 21))
    assert eager_end == kept_end
    assert kept_cancelled[20] - kept_cancelled[2] == 0
    assert eager_cancelled[20] - eager_cancelled[2] > 0
