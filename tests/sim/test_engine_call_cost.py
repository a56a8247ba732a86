"""What one engine event costs, in profiled calls, for the three shapes
the stack is made of.

Every call cProfile sees, Python and C, while one :class:`Simulator`
runs a thousand events of one shape, divided by the events run.  Each
shape's floor, per event: the heap pop, the callback, whatever it calls
to make the next event, the insertion (``schedule_at``) and the heap
push.

* a process yielding ``cpu.charge(cost)`` — thread context:
  ``Process._resume``, ``generator.send``, the generator, ``hold``, the
  insertion, ``list.append`` of the resume callback;
* an interrupt-context chain, ``cpu.charge(cost, then)`` — the stage,
  ``hold``, the insertion;
* a ``call_later`` chain — its lambda, the callee, ``call_later``, the
  insertion.

Before the engine dropped its per-event plumbing (an ``Event.__init__``
frame per charge and timer, a ``dict.get`` and a ``len()`` per
insertion and dispatch, a ``step()`` frame per timestamp, the ``now``
property) these read 12.0, 9.0 and 11.0.
"""

import cProfile

import pytest

from repro.sim import CPU, Simulator

EVENTS = 1000


def _process_charges(sim):
    cpu = CPU(sim)

    def worker():
        for _ in range(EVENTS):
            yield cpu.charge(1e-6)

    sim.process(worker())


def _callback_chain(sim):
    cpu = CPU(sim)
    left = [EVENTS]

    def stage(_event):
        left[0] -= 1
        if left[0]:
            cpu.charge(1e-6, stage)

    cpu.charge(1e-6, stage)


def _call_later_chain(sim):
    left = [EVENTS]

    def tick(_arg):
        left[0] -= 1
        if left[0]:
            sim.call_later(1e-6, tick, None)

    sim.call_later(1e-6, tick, None)


@pytest.mark.parametrize(
    "build, ceiling",
    [(_process_charges, 8.1), (_callback_chain, 5.1), (_call_later_chain, 6.1)],
    ids=["process-charge", "charge-then-chain", "call-later-chain"],
)
def test_engine_calls_per_event_gate(build, ceiling):
    sim = Simulator()
    build(sim)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        sim.run()
    finally:
        profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    events = sim.engine_stats()["events"]
    assert events >= EVENTS
    assert calls / events <= ceiling
