"""Test oracle and §2.1 paper arm: the eager timer rule the kept-event
rule replaced.

``MachineRunner`` keeps one engine event per armed TCP timer: a re-arm
to a later deadline stores it, a cancel clears it, and the event
re-schedules or retires when it comes up.  Under the eager rule every
``SetTimer`` cancels the name's event and arms a fresh one, and every
``CancelTimer`` cancels it, so steady ping-pong leaves a tombstone per
re-arm.  :class:`EagerRunner` is that rule and nothing else: every
other action is handled as the production runner handles it, with the
same ``timer_op`` charge carried into the first emission, and the
stop, resume and expiry paths are the production ones (an eager event
comes up only at its deadline, so the kept-event re-schedule never
runs).  ``test_runner_timers`` fuzzes the kept rule against it, and
``bench_ablation_timers`` races the two on the ledger's worlds.

It is not production code: inside :func:`eager_timers` every runner a
``repro`` module constructs is an ``EagerRunner``.
"""

from contextlib import contextmanager

from repro import obs as _obs
from repro.org.runner import MachineRunner
from repro.protocols.tcp import (
    CancelTimer, DeliverData, DeliverFin, EmitSegment, NotifyClosed, NotifyConnected,
    SendSpaceAvailable, SetTimer,
)

from ..net.eager_datapath import rebind


class EagerRunner(MachineRunner):
    """``MachineRunner`` under the eager rule: one fresh engine event
    per arm, a cancel per re-arm and per cancel."""

    def _execute(self, actions, now):
        emissions = []
        timer_ops = 0
        timers = self._timers
        for action in actions:
            kind = action.__class__
            woken = ()
            if kind is EmitSegment:
                emissions.append(action)
            elif kind is SetTimer:
                timer_ops += 1
                self._arm_timer(action.name, now, action.delay)
            elif kind is CancelTimer:
                if action.name in timers:
                    timer_ops += 1
                    timer = timers[action.name]
                    if timer is not None:
                        timer[2].cancel()
                        timers[action.name] = None
            elif kind is DeliverData:
                self.rx_buffer.extend(action.data)
                woken = (self._readers,)
            elif kind is SendSpaceAvailable:
                woken = (self._writers,)
            elif kind is DeliverFin:
                self.eof = True
                woken = (self._readers,)
            elif kind is NotifyConnected:
                self.connected = True
                woken = (self._connect_waiters,)
            elif kind is NotifyClosed:
                self.closed_reason = action.reason
                self.stop_timers()
                woken = (
                    self._readers, self._writers,
                    self._connect_waiters, self._close_waiters,
                )
            else:
                raise AssertionError(f"unhandled action {action!r}")
            for waiters in woken:
                while waiters:
                    waiters.pop().succeed()
        lead = 0.0
        if timer_ops:
            lead = self.kernel.costs.timer_op * timer_ops
            obs = _obs.SESSION
            if obs is not None:
                obs.profiler.charge("tcp.timer_op", lead)
        if not emissions:
            if lead:
                turn = self.kernel.cpu.spend(lead)
                return () if turn is None else (turn,)
            return ()
        if len(emissions) == 1:
            (action,) = emissions
            return self.emit_fn(action.segment, lead, action.retransmit)
        return self._emit_all(emissions, lead)


@contextmanager
def eager_timers():
    """Run the stack's TCP connections on :class:`EagerRunner`.

    The library, the kernel stacks and the registry's handshakes each
    construct ``MachineRunner`` by the name they imported, so the name
    is swapped in every ``repro`` module that holds it.
    """
    rebind(MachineRunner, EagerRunner)
    try:
        yield
    finally:
        rebind(EagerRunner, MachineRunner)
