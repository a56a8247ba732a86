"""What one engine event costs, in profiled calls, for the shapes the
stack is made of.

Every call cProfile sees, Python and C, while one :class:`Simulator`
runs a thousand events of one shape, divided by the events run.  When
the new event is the lone earliest one, the engine's next slot holds it
off the heap, so each shape's floor, per event, is the callback,
whatever it calls to make the next event, and the insertion
(``schedule_at``; ``Simulator._turn`` for a CPU charge, which makes
the turn and places it in one frame, bound to the CPU as a method
object cProfile does not count; or ``call_later``, which does the same
for a delayed callback):

* a process spending ``cpu.spend(cost)`` — thread context: the turn
  alone; each turn is the drain's next step, so ``spend`` takes it in
  place and the generator never yields, and ``Process._resume`` is
  entered once for the whole run;
* an interrupt-context chain, ``cpu.charge(cost, then)`` — the stage,
  the turn;
* a ``call_later`` chain — the callee and ``call_later``, which makes
  the event and places it in one frame;
* a *contended* pair of processes spending one CPU, whose turns
  interleave so no new event is ever the lone earliest one: every
  event pays the heap pop and push and ``Process._resume`` as before
  the slot — the slot costs nothing where it never fires — but no
  ``list.append``: ``spend`` registers the process on the turn it makes.

Before the engine dropped its per-event plumbing (an ``Event.__init__``
frame per charge and timer, a ``dict.get`` and a ``len()`` per
insertion and dispatch, a ``step()`` frame per timestamp, the ``now``
property) the first three read 12.0, 9.0 and 11.0; before the next
slot, 8.0, 5.0 and 6.0; before a charge was one ``_turn`` frame (a
``Serial.hold`` frame, then ``schedule_at``), 4.0, 3.0 and 4.0, and the
contended pair 8.0; the contended pair read 7.0 (ceiling 7.1) while
its process's resume registered it on each turn, as on a yielded
``charge``, which still reads 7.0; the ``call_later`` chain read 4.0 while
``call_later`` took ``(delay, fn, arg)`` and paid a ``schedule_at``
frame and a lambda per event.  A process yielding ``cpu.charge(cost)``
read 3.0 (ceiling 3.1) while ``Process._resume`` took a yielded event
the slot held in place; it reads 5.0 without that, and no thread
yields a bare ``charge`` since ``spend`` (1.017, ceiling 1.1).
"""

import pytest

from repro.sim import CPU, Simulator

from ..net.test_data_path_cost import profiled_calls

EVENTS = 1000


def _process_spends(sim):
    cpu = CPU(sim)

    def worker():
        for _ in range(EVENTS):
            if (turn := cpu.spend(1e-6)) is not None:
                yield turn

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

    def tick(_event):
        left[0] -= 1
        if left[0]:
            sim.call_later(1e-6, tick)

    sim.call_later(1e-6, tick)


def _contended_spends(sim):
    cpu = CPU(sim)

    def worker():
        for _ in range(EVENTS // 2):
            if (turn := cpu.spend(1e-6)) is not None:
                yield turn

    sim.process(worker())
    sim.process(worker())


@pytest.mark.parametrize(
    "build, ceiling",
    [
        (_process_spends, 1.1),
        (_callback_chain, 2.1),
        (_call_later_chain, 2.1),
        (_contended_spends, 6.1),
    ],
    ids=["process-spend", "charge-then-chain", "call-later-chain", "contended"],
)
def test_engine_calls_per_event_gate(build, ceiling):
    sim = Simulator()
    build(sim)
    calls = profiled_calls(sim.run)
    events = sim.engine_stats()["events"]
    assert events >= EVENTS
    assert calls / events <= ceiling
