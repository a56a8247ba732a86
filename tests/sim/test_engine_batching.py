"""The bucket-heap engine against the original tuple-heap engine.

:class:`~tests.sim.legacy_engine.LegacySimulator` is the pre-refactor
engine kept verbatim; these tests use it as the ordering oracle.  The batched
engine must execute every workload in byte-identical order — URGENT
before NORMAL at equal times, FIFO within a priority, events scheduled
mid-batch joining the live batch exactly where the tuple heap would
have put them — and its lazy-cancellation bookkeeping must add up.
"""

import random
from functools import partial
from math import inf

import pytest

from repro.sim import (
    CPU,
    NORMAL,
    URGENT,
    Interrupt,
    Simulator,
    Timeout,
)
from repro import testbed as testbeds
from repro.sim.events import Event
from repro.trace import WireTrace

from .legacy_engine import LegacySimulator


def _recorded_event(sim, order, label, rng=None, depth=0):
    """An event whose callback records ``label`` and, when ``rng`` is
    given, schedules a few more events with seeded-random delay and
    priority.  Both engines replay the same seed: as long as execution
    order matches, the RNG draws align, so any ordering divergence
    shows up as differing transcripts."""
    event = Event(sim)
    event._ok = True

    def callback(_ev):
        order.append(label)
        if rng is None or depth >= 2:
            return
        for k in range(rng.randrange(0, 3)):
            child = _recorded_event(
                sim, order, f"{label}.{k}", rng, depth + 1
            )
            delay = rng.choice([0.0, 0.0, 1e-3, 2e-3])
            priority = rng.choice([NORMAL, NORMAL, NORMAL, URGENT])
            if priority == NORMAL and rng.random() < 0.5:
                # The absolute-time entry lands on the same timestamps
                # (and live batches) as the relative one.
                sim.schedule_at(child, sim.now + delay)
            else:
                sim.schedule(child, delay=delay, priority=priority)

    event.callbacks.append(callback)
    return event


def _run_script(sim_cls, seed):
    rng = random.Random(seed)
    sim = sim_cls()
    order = []
    # Seed phase: events piled onto few distinct timestamps so buckets
    # actually form, with a sprinkle of URGENT.
    for i in range(40):
        event = _recorded_event(sim, order, f"seed{i}", rng)
        delay = rng.choice([0.0, 1e-3, 1e-3, 2e-3, 5e-3])
        priority = URGENT if rng.random() < 0.2 else NORMAL
        sim.schedule(event, delay=delay, priority=priority)
    sim.run()
    return order


def _timer_and_serial_ties(sim_cls):
    """The same race through the entry points the stack schedules by:
    ``call_later`` and ``cpu.charge(cost, then)`` (on two CPUs) beside
    plain NORMAL and URGENT events.  Delays and costs are multiples of
    2**-10 s, so every sum is exact and a timer and a charge completion
    land on one instant again and again (asserted)."""
    rng = random.Random(25)
    sim = sim_cls()
    cpus = [CPU(sim), CPU(sim)]
    order = []
    tick = 2.0**-10

    def start(label, depth):
        how = rng.choice(["later", "charge", "charge", "normal", "urgent"])
        delay = tick * rng.randrange(0, 3)
        label = f"{label}:{how}"

        def callback(_event):
            order.append((sim.now, label))
            if depth < 3:
                for k in range(rng.randrange(0, 3)):
                    start(f"{label}.{k}", depth + 1)

        if how == "later":
            sim.call_later(delay, callback)
        elif how == "charge":
            rng.choice(cpus).charge(delay, callback)
        else:
            event = Event(sim)
            event._ok = True
            event.callbacks.append(callback)
            sim.schedule(event, delay, URGENT if how == "urgent" else NORMAL)

    for i in range(30):
        start(f"s{i}", 0)
    sim.run()
    kinds = {}
    for at, label in order:
        kinds.setdefault(at, set()).add(label.rsplit(":", 1)[1])
    assert sum({"later", "charge"} <= found for found in kinds.values()) >= 3
    return order


def _processes_on_two_cpus(sim_cls, seed, cases=None):
    """Processes the way the stack runs them: charging and spending two
    CPUs, parking and waking each other with ``succeed()``, spawning,
    arming and cancelling timers, and interrupting a worker that waits
    on a spend turn or a park.  Charges are multiples of 2**-12 s, fine
    enough that many events are the lone earliest one when scheduled:
    on :class:`Simulator` they pass through the next slot, many a spend
    is taken in place, and a wake-up the slot holds is moved onto the
    heap by a same-instant schedule (asserted).  ``cases`` counts, on
    :class:`Simulator`, the turns a spend came back registered with
    (``registered``), and the interrupts of a worker waiting on a turn
    (``turn_interrupted``) or parked (``park_interrupted``), and the
    parks yielded again after one (``park_again``)."""
    rng = random.Random(seed)
    sim = sim_cls()
    cpus = [CPU(sim), CPU(sim)]
    tick = 2.0**-10
    order = []
    waiting = []
    moved = [0]
    #: Process -> "turn" or "park" while it waits on one.
    waits = {}
    cases = {} if cases is None else cases

    def count(case):
        if sim_cls is Simulator:
            cases[case] = cases.get(case, 0) + 1

    def held_now():
        return sim._next is not None and sim._next_t == sim.now

    def wait_on(me, kind, event):
        """Yield ``event``, a "turn" or a "park", where an "interrupt"
        finds it; returns what the label gains.  An interrupted parker
        yields its parked event again half the time."""
        waits[me] = kind
        try:
            value = yield event
        except Interrupt as stop:
            gained = "!" + stop.args[0]
            if kind == "park" and rng.random() < 0.5:
                # Still on ``waiting``: the next wake resumes it.
                count("park_again")
                gained += "=" + (yield event)
            return gained
        finally:
            waits.pop(me, None)
        return "" if value is None else "=" + value

    def worker(name, depth):
        me = sim.active_process
        for k in range(rng.randrange(6, 14)):
            how = rng.choice(
                ["charge", "spend", "spend", "wake", "wait", "spawn", "timer", "interrupt"]
            )
            if how == "charge":
                yield rng.choice(cpus).charge(tick * rng.randrange(0, 9) / 4)
            elif how == "spend":
                cost = tick * rng.randrange(0, 9) / 4
                if cost and (turn := rng.choice(cpus).spend(cost)) is not None:
                    if turn.callbacks == [me._resume]:
                        count("registered")
                    how += yield from wait_on(me, "turn", turn)
            elif how == "wake":
                # Every wake-up is due now, and so is the timeout after
                # them: each is a same-instant schedule that must move a
                # wake-up the slot holds onto the heap.
                for event in waiting:
                    moved[0] += held_now()
                    event.succeed(name)
                waiting.clear()
                moved[0] += held_now()
                yield sim.timeout(0)
            elif how == "wait":
                how += yield from wait_on(me, "park", sim.park(waiting))
            elif how == "spawn" and depth < 2:
                sim.process(worker(f"{name}.{k}", depth + 1))
            elif how == "timer":
                timer = sim.timeout(tick * rng.randrange(0, 3))
                if rng.random() < 0.5:
                    timer.cancel()
                else:
                    yield timer
            elif how == "interrupt" and waits:
                victim = rng.choice(list(waits))
                count(waits.pop(victim) + "_interrupted")
                victim.interrupt(name)
            order.append((sim.now, f"{name}:{how}"))

    for i in range(10):
        sim.process(worker(f"p{i}", 0))
    sim.run()
    if sim_cls is Simulator:
        assert moved[0] >= 1
    return order, sim.engine_stats()


def _process_race(sim_cls, seed):
    """:func:`_processes_on_two_cpus` with every engine count but the
    three the oracle keeps per event by design."""
    order, stats = _processes_on_two_cpus(sim_cls, seed)
    del stats["steps"], stats["batched"], stats["max_batch"]
    return order, stats


class _HeapOnly(Simulator):
    """The engine with its next slot shut: the flag a solo dispatch
    sets never reads true, so every event takes the heap."""

    _solo = property(lambda self: False, lambda self, value: None)


@pytest.mark.parametrize(
    "script",
    [pytest.param(partial(_run_script, seed=seed), id=str(seed)) for seed in range(8)]
    + [pytest.param(_timer_and_serial_ties, id="call_later-charge-ties")]
    + [
        pytest.param(partial(_process_race, seed=seed), id=f"processes-{seed}")
        for seed in range(4)
    ],
)
def test_batched_order_identical_to_legacy(script):
    assert script(Simulator) == script(LegacySimulator)


def test_the_process_race_interrupts_registered_turns_and_parks():
    """The race above reaches what the engine's registration changes: a
    spend turn made for a running process carries its resume, and an
    interrupt detaches a worker from such a turn or from a park, after
    which a re-yielded park registers afresh."""
    cases = {}
    for seed in range(4):
        _processes_on_two_cpus(Simulator, seed, cases)
    assert set(cases) == {"registered", "turn_interrupted", "park_interrupted", "park_again"}
    assert min(cases.values()) >= 1, cases


@pytest.mark.parametrize("seed", range(4))
def test_next_slot_counts_steps_as_the_heap_does(seed):
    """Every ``engine_stats()`` count, ``steps`` included, reads the
    same whether an event already next waits in the slot or takes the
    heap: the ledger's outcome digests cover these counts."""
    assert _processes_on_two_cpus(Simulator, seed) == _processes_on_two_cpus(_HeapOnly, seed)


class _Boom(Exception):
    """Raised by a script's callback, out of a solo dispatch."""


def _slot_script(sim_cls, seed):
    """Every way the stack places an event, seeded: ``cpu.charge`` on
    two or three CPUs with and without ``then`` and at zero length,
    ``call_later``, ``Event.succeed`` waking parked processes, process
    spawns (an URGENT ``Initialize`` at ``now``), a ``run(until=event)``
    that stops inside a batch, a ``run_all`` limit, and a charge stage
    that places an event and then raises; and processes that spend,
    inside a ``run(until=t)`` too.  Costs are multiples of 2**-11 s, so
    instants collide.  Returns the ``(instant, label)`` trace, each
    CPU's ``busy_time``, the engine counts, and how often a later
    newcomer left the held event in the next slot (``kept``), a
    ``call_later`` did so (``later_kept``) or, at or before the held
    instant, moved it onto the heap (``later_moved``), a spawn found an
    event held at ``now`` (``urgent``), and a spend moved the held
    event onto the heap (``spend_moved``), was taken in place
    (``spend_taken``), ended past a ``run(until=t)`` stop
    (``spend_until``) or a ``run_all`` limit (``spend_limit``), or was
    made in a batch step (``spend_batch``).  Two last processes spend
    alone, past a ``run(until=t)`` stop and a ``run_all`` limit."""
    rng = random.Random(seed)
    sim = sim_cls()
    cpus = [CPU(sim) for _ in range(rng.choice([2, 3]))]
    tick = 2.0**-11
    trace = []
    waiting = []
    cases = dict.fromkeys(
        ["kept", "later_kept", "later_moved", "urgent", "spend_moved", "spend_taken",
         "spend_until", "spend_limit", "spend_batch"],
        0,
    )
    budget = [300]
    until = [inf]

    def record(label):
        trace.append((sim.now, label))

    def fire(label, depth, _event):
        record(label)
        if depth < 4:
            for k in range(rng.randrange(0, 4)):
                act(f"{label}.{k}", depth + 1)

    def boom(label, depth, _event):
        record(label)
        act(f"{label}.0", depth + 1)
        raise _Boom(label)

    def act(label, depth):
        if budget[0] <= 0:
            return
        budget[0] -= 1
        how = rng.choice(
            ["charge", "charge", "bare", "later", "later", "succeed", "spawn", "raise"]
        )
        label = f"{label}:{how}"
        cost = tick * rng.choice([0, rng.randrange(1, 17) / 8])
        held = sim._next
        if how == "charge":
            rng.choice(cpus).charge(cost, partial(fire, label, depth))
        elif how == "bare":
            rng.choice(cpus).charge(cost)
        elif how == "later":
            sim.call_later(cost, partial(fire, label, depth))
            if held is not None:
                cases["later_kept" if sim._next is held else "later_moved"] += 1
        elif how == "succeed":
            event = sim.event()
            event.callbacks.append(partial(fire, label, depth))
            event.succeed()
            for parked in waiting:
                parked.succeed(label)
            waiting.clear()
        elif how == "spawn":
            if rng.random() < 0.5:
                # A call due now, then the start: the slot may hold the
                # one, and the other is an URGENT newcomer at its instant.
                sim.call_later(0.0, partial(fire, f"{label}/now", depth))
            cases["urgent"] += sim._next is not None and sim._next_t == sim.now
            sim.process(worker(label, depth + 1))
        else:
            rng.choice(cpus).charge(cost, partial(boom, label, depth))
        cases["kept"] += held is not None and sim._next is held

    def spend(cpu, cost):
        end = max(cpu.busy_until, sim.now) + cost
        held = sim._next
        first = sim._heap[0] if sim._heap else inf
        if not sim._solo:
            cases["spend_batch"] += 1
        elif first == until[0] <= end:
            cases["spend_until"] += 1
        elif sim._limit < end < first and (held is None or end <= sim._next_t):
            cases["spend_limit"] += 1
        turn = cpu.spend(cost)
        cases["spend_moved"] += held is not None and sim._next is not held
        if turn is None:
            cases["spend_taken"] += 1
        else:
            yield turn

    def alone(run):
        """A process alone on the schedule, run to just after ``now``:
        the stop is all that keeps its first turn from being taken in
        place."""

        def tail():
            yield sim.timeout(tick / 4)  # Out of its start's URGENT batch.
            for k in range(3):
                yield from spend(rng.choice(cpus), tick * rng.randrange(1, 5))
                record(f"{run.__name__}:{k}")

        sim.process(tail())
        run(sim.now + tick / 2)

    def worker(name, depth):
        for k in range(rng.randrange(4, 12)):
            how = rng.choice(["charge", "spend", "zero", "act", "act", "wait", "timeout"])
            if how == "charge":
                yield rng.choice(cpus).charge(tick * rng.randrange(1, 5))
            elif how == "spend":
                cpu = rng.choice(cpus)
                cost = tick * rng.randrange(1, 5)
                if rng.random() < 0.5:
                    # A call due when an idle CPU's turn would end: the
                    # slot may hold it, and the spend then moves it.
                    sim.call_later(cost, partial(fire, f"{name}.{k}:due", depth))
                yield from spend(cpu, cost)
            elif how == "zero":
                yield rng.choice(cpus).charge(0.0)
            elif how == "act":
                act(f"{name}.{k}", depth)
            elif how == "wait":
                event = sim.event()
                waiting.append(event)
                how += "=" + (yield event)
            else:
                yield sim.timeout(tick * rng.randrange(0, 3))
            record(f"{name}:{how}")

    for i in range(rng.randrange(3, 7)):
        act(f"s{i}", 0)
    for i in range(rng.randrange(1, 4)):
        sim.process(worker(f"p{i}", 0))
    # The stop sits inside a batch: "a" runs before it, "b" after.
    stop_at = tick * rng.randrange(1, 12)
    sim.call_later(stop_at, lambda _event: record("a"))
    stop = sim.timeout(stop_at)
    sim.call_later(stop_at, lambda _event: record("b"))
    until_at = stop_at + tick * rng.randrange(1, 12)

    def run_until(at):
        until[0] = at
        try:
            sim.run(at)
        finally:
            until[0] = inf

    phases = [
        partial(sim.run, stop),
        partial(run_until, until_at),
        partial(sim.run_all, until_at + tick * rng.randrange(0, 12)),
        sim.run,
        partial(alone, run_until),
        sim.run,
        partial(alone, sim.run_all),
        sim.run,
    ]
    for phase in phases:
        while True:
            try:
                phase()
            except _Boom as exc:
                record(f"raised {exc}")
            else:
                record("phase")
                break
    busy = [(cpu.busy_time, cpu.busy_until) for cpu in cpus]
    return trace, busy, sim.engine_stats(), cases


SLOT_SEEDS = range(40)


@pytest.mark.parametrize("seed", SLOT_SEEDS)
def test_placement_matches_the_oracle(seed):
    """The next slot's placement rule against the tuple heap and the
    heap-only engine: a newcomer at or before the held instant moves
    the held event onto the heap (a same-instant URGENT one must run
    first), a later one leaves it in the slot, and a spend the slot
    would hold is taken in place, as its step.  The trace and the
    CPUs' busy time match both; every engine count matches the
    heap-only engine, and all but the three the oracle keeps per event
    by design match the tuple heap."""
    trace, busy, stats, _ = _slot_script(Simulator, seed)
    legacy_trace, legacy_busy, legacy_stats, _ = _slot_script(LegacySimulator, seed)
    heap_trace, heap_busy, heap_stats, _ = _slot_script(_HeapOnly, seed)
    assert (trace, busy) == (legacy_trace, legacy_busy) == (heap_trace, heap_busy)
    assert stats == heap_stats
    for name in ("steps", "batched", "max_batch"):
        del stats[name], legacy_stats[name]
    assert stats == legacy_stats


def test_placement_scripts_reach_both_slot_cases():
    """The seeds above exercise what they are there for: a later
    newcomer that left the held event in the slot, a ``call_later``
    in each slot case (later: kept; at or before: moved), a spawn that
    found an event held at ``now``, a stage that raised, and a spend in
    each of its cases: one that moved the held event, one taken in
    place, one past a ``run(until=t)`` stop or a ``run_all`` limit, and
    one made in a batch step."""
    reached = {}
    for seed in SLOT_SEEDS:
        trace, _, _, cases = _slot_script(Simulator, seed)
        cases["raised"] = any(label.startswith("raised") for _, label in trace)
        for case, count in cases.items():
            reached[case] = reached.get(case, 0) + (count > 0)
    assert reached["kept"] >= 25 and reached["urgent"] >= 25 and reached["raised"] >= 30
    assert reached["later_kept"] >= 10 and reached["later_moved"] >= 10
    assert reached["spend_moved"] >= 5 and reached["spend_taken"] >= 30
    assert reached["spend_until"] >= 30 and reached["spend_limit"] >= 30
    assert reached["spend_batch"] >= 30


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_urgent_before_normal_fifo_within_priority(sim_cls):
    sim = sim_cls()
    order = []
    for i in range(3):
        sim.schedule(_recorded_event(sim, order, f"n{i}"), delay=1e-3)
    for i in range(3):
        sim.schedule(
            _recorded_event(sim, order, f"u{i}"), delay=1e-3, priority=URGENT
        )
    sim.schedule(_recorded_event(sim, order, "n3"), delay=1e-3)
    sim.run()
    assert order == ["u0", "u1", "u2", "n0", "n1", "n2", "n3"]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_urgent_scheduled_mid_batch_preempts_remaining_normals(sim_cls):
    sim = sim_cls()
    order = []

    first = Event(sim)
    first._ok = True

    def inject(_ev):
        order.append("first")
        # Scheduled at the live batch's own timestamp: must run before
        # the NORMALs that were already queued ahead of it.
        sim.schedule(
            _recorded_event(sim, order, "late-urgent"), priority=URGENT
        )

    first.callbacks.append(inject)
    sim.schedule(first, delay=1e-3)
    sim.schedule(_recorded_event(sim, order, "n0"), delay=1e-3)
    sim.schedule(_recorded_event(sim, order, "n1"), delay=1e-3)
    sim.run()
    assert order == ["first", "late-urgent", "n0", "n1"]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_mid_batch_same_time_normal_joins_batch_tail(sim_cls):
    sim = sim_cls()
    order = []

    head = Event(sim)
    head._ok = True

    def inject(_ev):
        order.append("head")
        sim.schedule(_recorded_event(sim, order, "tail"))  # delay 0.

    head.callbacks.append(inject)
    sim.schedule(head, delay=1e-3)
    sim.schedule(_recorded_event(sim, order, "mid"), delay=1e-3)
    sim.run()
    assert order == ["head", "mid", "tail"]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_schedule_at_fires_at_the_exact_float(sim_cls):
    sim = sim_cls()
    order = []
    fired_at = []
    # 0.1 + 0.2 is not the float 0.3: an absolute instant must survive
    # scheduling unchanged, which ``now + (t - now)`` does not promise.
    target = 0.1 + 0.2

    def hop(_ev):
        probe = _recorded_event(sim, order, "probe")
        probe.callbacks.append(lambda _: fired_at.append(sim.now))
        sim.schedule_at(probe, target)
        sim.schedule_at(_recorded_event(sim, order, "same-instant"), sim.now)

    first = Event(sim)
    first._ok = True
    first.callbacks.append(hop)
    sim.schedule(first, delay=0.1)
    sim.schedule(_recorded_event(sim, order, "queued"), delay=0.1)
    sim.run()
    assert fired_at == [target]
    assert order == ["queued", "same-instant", "probe"]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_schedule_at_rejects_the_past(sim_cls):
    sim = sim_cls(initial_time=1.0)
    with pytest.raises(ValueError):
        sim.schedule_at(Event(sim), 0.5)


def test_cancelled_timer_never_fires_and_is_counted():
    sim = Simulator()
    fired = []
    keep = Timeout(sim, 1e-3, value="keep")
    keep.callbacks.append(lambda ev: fired.append(ev._value))
    doomed = Timeout(sim, 1e-3, value="doomed")
    doomed.callbacks.append(lambda ev: fired.append(ev._value))

    assert doomed.cancel()
    assert doomed.cancelled and not doomed.processed
    assert not doomed.cancel()  # Idempotent: one tombstone, one count.
    sim.run()

    assert fired == ["keep"]
    stats = sim.engine_stats()
    assert stats["cancelled"] == 1
    assert stats["skipped"] == 1  # The tombstone was popped and skipped.
    assert stats["events"] == 2


def test_duplicate_schedule_is_skipped_and_counted():
    sim = Simulator()
    runs = []
    event = Event(sim)
    event._ok = True
    event.callbacks.append(lambda ev: runs.append(1))
    sim.schedule(event, delay=1e-3)
    sim.schedule(event, delay=2e-3)  # Duplicate: same event, later slot.
    sim.run()

    assert runs == [1]  # Callbacks detach on first processing.
    stats = sim.engine_stats()
    assert stats["skipped"] == 1
    assert stats["cancelled"] == 0  # A duplicate, not a cancellation.
    assert stats["events"] == 2


def test_stop_mid_batch_preserves_same_time_remainder():
    """``run(until=...)`` stopping inside a batch must leave the
    unprocessed same-timestamp tail schedulable, exactly like the tuple
    heap's one-event-per-step behaviour."""
    results = {}
    for sim_cls in (Simulator, LegacySimulator):
        sim = sim_cls()
        order = []
        sim.schedule(_recorded_event(sim, order, "a"), delay=1e-3)
        stop = Event(sim)
        stop._ok = True
        sim.schedule(stop, delay=1e-3)
        sim.schedule(_recorded_event(sim, order, "b"), delay=1e-3)
        sim.schedule(_recorded_event(sim, order, "c"), delay=1e-3)
        sim.run(until=stop)
        first_phase = list(order)
        sim.run()
        results[sim_cls.__name__] = (first_phase, order)

    batched, legacy = results["Simulator"], results["LegacySimulator"]
    assert batched == legacy
    assert batched[0] == ["a"]  # Stopped before b and c...
    assert batched[1] == ["a", "b", "c"]  # ...which survive the stop.


def test_error_after_the_slot_took_an_event_keeps_it_scheduled():
    """A callback that raises once the next slot holds its successor (a
    timer that wakes a waiting process) leaves that event on the heap,
    not in the slot, and no solo dispatch is left open: an earlier
    event scheduled before the next run fires, that run stops at its
    limit, and the process wakes at the timer's exact instant — as on
    the oracle."""
    results = {}
    for sim_cls in (Simulator, LegacySimulator):
        sim = sim_cls()
        cpu = CPU(sim)
        order = []
        held = []
        woken = sim.event()

        def record(label):
            order.append((sim.now, label))

        def sleeper():
            record((yield woken))
            yield cpu.charge(0.25e-3)
            record("charged")

        def ring(_event):
            record("timer")
            woken.succeed("woken")

        def stage(_ev):
            sim.call_later(0.5e-3, ring)
            held.append(sim._next is not None)
            raise RuntimeError("stage failed")

        sim.process(sleeper())
        cpu.charge(1e-3, stage)
        sim.call_later(2e-3, lambda _event: record("later"))
        with pytest.raises(RuntimeError, match="stage failed"):
            sim.run()
        assert sim.now == 1e-3 and order == []
        sim.call_later(0.25e-3, lambda _event: record("between"))
        sim.run_all(1e-3 + 0.3e-3)
        assert order == [(1e-3 + 0.25e-3, "between")]
        sim.run()
        stats = sim.engine_stats()
        results[sim_cls] = (order, stats["events"], stats["skipped"])
        assert held == [sim_cls is Simulator]

    assert results[Simulator] == results[LegacySimulator]
    woke = 1e-3 + 0.5e-3
    assert results[Simulator][0] == [
        (1e-3 + 0.25e-3, "between"),
        (woke, "timer"),
        (woke, "woken"),
        (woke + 0.25e-3, "charged"),
        (2e-3, "later"),
    ]


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
def test_a_held_event_with_a_waiter_resumes_every_waiter(sim_cls):
    """A process that yields the event the slot holds waits on it like
    any other: here the waiter resumes first, then the process, as the
    tuple heap orders them."""
    sim = sim_cls()
    order = []
    shared = sim.event()

    def waiter():
        order.append(("waiter", (yield shared), sim.now))

    def waker():
        yield sim.timeout(1e-3)
        shared.succeed("go")
        assert (sim._next is shared) == (sim_cls is Simulator)
        order.append(("waker", (yield shared), sim.now))

    sim.process(waiter())
    sim.process(waker())
    sim.run()
    assert order == [("waiter", "go", 1e-3), ("waker", "go", 1e-3)]


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_full_stack_wire_identical_to_legacy(network, monkeypatch):
    """A bulk transfer and a ping-pong through the whole stack put the
    same frames on the wire at the same instants, and deliver the same
    bytes, whichever engine runs them."""

    def run(sim_cls):
        monkeypatch.setattr(testbeds, "Simulator", sim_cls)
        bed = testbeds.Testbed(network=network)
        assert type(bed.sim) is sim_cls
        trace = WireTrace(bed.link)
        payload = bytes(range(256)) * 64
        delivered = []

        def server():
            listener = yield from bed.service_b.listen(9300)
            conn = yield from listener.accept()
            delivered.append((yield from conn.recv_exactly(len(payload))))
            for _ in range(8):
                byte = yield from conn.recv_exactly(1)
                yield from conn.send(byte)
            yield from conn.close()

        def client():
            conn = yield from bed.service_a.connect(testbeds.IP_B, 9300)
            yield from conn.send(payload)
            for k in range(8):
                yield from conn.send(bytes([k]))
                delivered.append((yield from conn.recv_exactly(1)))
            yield from conn.close()

        bed.spawn(server(), name="server")
        bed.run(until=bed.spawn(client(), name="client"))
        bed.run(until=bed.sim.now + 0.5)
        assert delivered[0] == payload and len(delivered) == 9
        return [(r.time, r.raw) for r in trace.records], delivered

    assert run(Simulator) == run(LegacySimulator)


def test_engine_stats_track_batching():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(_recorded_event(sim, order, f"e{i}"), delay=1e-3)
    sim.schedule(_recorded_event(sim, order, "solo"), delay=2e-3)
    sim.run()
    stats = sim.engine_stats()
    assert stats["events"] == 11
    assert stats["steps"] == 2  # One batch of 10, one singleton.
    assert stats["batched"] == 9
    assert stats["max_batch"] == 10


def test_legacy_simulator_counts_events_too():
    sim = LegacySimulator()
    order = []
    for i in range(5):
        sim.schedule(_recorded_event(sim, order, f"e{i}"), delay=1e-3)
    sim.run()
    stats = sim.engine_stats()
    assert stats["events"] == 5
    assert stats["steps"] == 5  # One heap pop per event, by design.
    assert stats["batched"] == 0
