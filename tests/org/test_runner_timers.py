"""MachineRunner's timer contract: every TCP timer is one engine event.

A scripted machine stands in for ``TcpMachine``: ``handle`` hands back
whatever action list the test fed it and logs each ``TimerExpires`` with
the instant it arrived, so the tests see exactly what the runner did
with ``SetTimer`` / ``CancelTimer`` / ``NotifyClosed``.
"""

import subprocess
import sys
from pathlib import Path

from repro.costs import DECSTATION_5000_200 as COSTS
from repro.mach.kernel import Kernel
from repro.org.runner import MachineRunner
from repro.protocols.tcp import CancelTimer, NotifyClosed, SetTimer, TimerExpires
from repro.sim import Simulator


class ScriptedMachine:
    def __init__(self):
        self.expired = []

    def handle(self, event, now):
        if isinstance(event, TimerExpires):
            self.expired.append((event.name, now))
            return []
        return event


def make_runner():
    sim = Simulator()

    def emit(segment):
        raise AssertionError("no test here emits a segment")
        yield

    runner = MachineRunner(Kernel(sim, COSTS), ScriptedMachine(), emit)
    return sim, runner


def feed(sim, runner, *actions, at=0.0):
    def later():
        yield sim.timeout(at - sim.now)
        yield from runner.handle(list(actions))

    sim.process(later())


def test_rearmed_timer_fires_once_at_the_new_deadline():
    sim, runner = make_runner()
    feed(sim, runner, SetTimer("rexmt", 1.0))
    feed(sim, runner, SetTimer("rexmt", 1.0), at=0.5)
    sim.run()
    # One SetTimer's CPU charge delays neither deadline: the timer is
    # armed before the charge, at the instant the machine decided.
    assert runner.machine.expired == [("rexmt", 1.5)]
    assert sim.engine_stats()["cancelled"] == 1
    assert sim.engine_stats()["skipped"] == 1


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
    assert sim.engine_stats()["cancelled"] == 1


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


def test_a_tcp_transfer_never_imports_the_timer_facilities():
    """``repro.timers`` holds the §2.1 ablation arms and nothing else:
    a fresh interpreter that builds a testbed and moves data over TCP
    must finish without it."""
    script = """
import sys
from repro.testbed import IP_B, Testbed

bed = Testbed(organization="userlib")

def server():
    listener = yield from bed.service_b.listen(7000)
    conn = yield from listener.accept()
    data = yield from conn.recv_exactly(4096)
    yield from conn.send(data[:1])
    yield from conn.close()

def client():
    conn = yield from bed.service_a.connect(IP_B, 7000)
    yield from conn.send(bytes(4096))
    yield from conn.recv_exactly(1)
    yield from conn.close()

bed.spawn(server())
bed.run(until=bed.spawn(client()))
assert bed.sim.engine_stats()["cancelled"] > 0  # timers were armed
print(sorted(m for m in sys.modules if m.startswith("repro.timers")))
"""
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
