"""Unit tests for Store, Serial, and CPU primitives."""

import cProfile
import random
from collections import deque

import pytest

from repro.net.fabric import fat_tree
from repro.net.headers import PROTO_UDP
from repro.protocols.udp import encode_datagram
from repro.sim import (
    CPU,
    Event,
    Interrupt,
    Serial,
    Simulator,
    Store,
    Timeout,
)

from .legacy_engine import LegacySimulator


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer():
        item = yield store.get()
        times.append((sim.now, item))

    def producer():
        yield sim.timeout(5.0)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert times == [(5.0, "late")]


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_store_put_event_fires_before_the_waiting_getters():
    sim = Simulator()
    store = Store(sim)
    order = []
    store.get().callbacks.append(lambda event: order.append(("got", event.value)))
    store.put("x").callbacks.append(lambda event: order.append("put"))
    assert len(store) == 0  # Handed to the getter, never queued.
    sim.run()
    assert order == ["put", ("got", "x")]


def test_store_waiting_getter_receives_direct_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))

    def producer():
        yield store.put("A")
        yield store.put("B")

    sim.process(producer())
    sim.run()
    assert got == [("first", "A"), ("second", "B")]


# ----------------------------------------------------------------------
# Serial
# ----------------------------------------------------------------------


def test_resource_serializes_users():
    sim = Simulator()
    res = Serial(sim)
    spans = []

    def worker(tag, hold):
        yield res.hold(hold)
        spans.append((tag, sim.now - hold, sim.now))

    sim.process(worker("a", 2.0))
    sim.process(worker("b", 3.0))
    sim.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]
    assert res.busy_until == 5.0


def test_serial_idle_gap_starts_at_now():
    sim = Simulator()
    res = Serial(sim)
    done = []

    def worker():
        yield res.hold(1.0)
        yield sim.timeout(4.0)  # Idle from 1.0 to 5.0.
        yield res.hold(0.5)
        done.append(sim.now)

    sim.process(worker())
    sim.run()
    assert done == [5.5]


def test_serial_hold_is_one_engine_event():
    sim = Simulator()
    res = Serial(sim)
    res.hold(1.0)
    res.hold(1.0)
    sim.run()
    assert sim.now == 2.0
    assert sim.engine_stats()["events"] == 2


def test_serial_negative_duration_rejected():
    sim = Simulator()
    res = Serial(sim)
    with pytest.raises(ValueError):
        res.hold(-1.0)
    assert res.busy_until == 0.0


class ReferenceFifo:
    """The mechanism Serial replaced, kept as its timing oracle: a
    capacity-1 FIFO granted by an event, then held by a timeout."""

    def __init__(self, sim):
        self.sim = sim
        self.held = False
        self.waiting = deque()

    def use(self, duration):
        grant = Event(self.sim)
        if self.held:
            self.waiting.append(grant)
        else:
            self.held = True
            grant.succeed()
        yield grant
        yield Timeout(self.sim, duration)
        if self.waiting:
            self.waiting.popleft().succeed()
        else:
            self.held = False


def _fuzz_transcript(sim_cls, seed, use_serial):
    """``(tag, completion instant)`` for seeded processes making seeded
    back-to-back charges, plus the arrival instants.  Arrivals sit on a
    coarse grid, so several processes ask at the same float instant and
    some arrive exactly as a turn ends; think times are off-grid."""
    rng = random.Random(seed)
    sim = sim_cls()
    serial, reference = Serial(sim), ReferenceFifo(sim)
    costs = [160e-6, 0.1, 1e-3, 57.6e-6, 0.3]
    log = []
    arrivals = set()

    def proc(tag, arrival, charges):
        yield sim.timeout(arrival)
        for k, (cost, think) in enumerate(charges):
            if use_serial:
                yield serial.hold(cost)
            else:
                yield from reference.use(cost)
            log.append((f"{tag}.{k}", sim.now))
            if think:
                yield sim.timeout(think)

    # First in line at 0.0 for 0.1: its turn ends exactly as "late" arrives.
    sim.process(proc("first", 0.0, [(0.1, 0.0)]))
    sim.process(proc("late", 0.1, [(1e-3, 0.0)]))
    for i in range(30):
        arrival = rng.choice([0.0, 0.1, 0.1, 0.2, 0.3]) * rng.randrange(0, 4)
        arrivals.add(arrival)
        charges = [
            (rng.choice(costs), rng.choice([0.0, 0.0, rng.random() * 1e-3]))
            for _ in range(rng.randrange(1, 5))
        ]
        sim.process(proc(f"p{i}", arrival, charges))
    sim.run()
    return log, arrivals


@pytest.mark.parametrize("sim_cls", [Simulator, LegacySimulator])
@pytest.mark.parametrize("seed", range(6))
def test_serial_matches_reference_fifo_to_the_float(sim_cls, seed):
    got, arrivals = _fuzz_transcript(sim_cls, seed, use_serial=True)
    want, _ = _fuzz_transcript(sim_cls, seed, use_serial=False)
    assert got == want  # Same order, same floats: no tolerance.
    assert len(arrivals) < 30  # Several processes arrived at one instant.
    assert got[0] == ("first.0", 0.1)


def _three_chargers(sim, cpu, log):
    """a, b, c each charge 1.0 at t=0: turns end at 1.0, 2.0, 3.0."""

    def proc(tag):
        try:
            yield cpu.charge(1.0)
            log.append((tag, "done", sim.now))
        except Interrupt:
            log.append((tag, "interrupted", sim.now))

    return [sim.process(proc(tag)) for tag in "abc"]


def _interrupt_at(sim, victim, when):
    def proc():
        yield sim.timeout(when)
        victim.interrupt()

    sim.process(proc())


def test_interrupt_during_queued_charge_keeps_reservations():
    sim = Simulator()
    cpu = CPU(sim)
    log = []
    _, b, _ = _three_chargers(sim, cpu, log)
    _interrupt_at(sim, b, 0.5)  # b's turn (1.0-2.0) has not started.
    sim.run()
    # The time was committed when charged: c is not pulled forward into
    # b's abandoned slot, and the meter keeps b's second.
    assert log == [
        ("b", "interrupted", 0.5),
        ("a", "done", 1.0),
        ("c", "done", 3.0),
    ]
    assert cpu.busy_time == 3.0
    assert cpu.busy_until == 3.0


def test_interrupt_during_running_charge_keeps_reservations():
    sim = Simulator()
    cpu = CPU(sim)
    log = []
    a, _, _ = _three_chargers(sim, cpu, log)
    _interrupt_at(sim, a, 0.5)  # a's turn (0.0-1.0) is under way.
    sim.run()
    assert log == [
        ("a", "interrupted", 0.5),
        ("b", "done", 2.0),
        ("c", "done", 3.0),
    ]
    assert cpu.busy_time == 3.0


def _fat_tree_arm():
    """The 16-host fat-tree arm: k=4, two flows a host, twelve 64-byte
    datagrams a flow, 2 ms pacing.  Returns (simulator, delivered)."""
    sim = Simulator()
    hosts = fat_tree(sim, k=4, hosts_per_edge=2).hosts
    n = len(hosts)
    received = []
    for host in hosts:
        host.udp_ports.bind(9000, received.append)

    def sender(src, dst_ip, sport):
        for seq in range(12):
            at = seq * 2e-3
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            datagram = encode_datagram(sport, 9000, bytes(64), src.ip, dst_ip)
            yield from src.ip_send(dst_ip, PROTO_UDP, datagram)

    for i, src in enumerate(hosts):
        for flow in range(2):
            dst = hosts[(i + n // 2 + flow * 2) % n]
            sim.process(sender(src, dst.ip, 9001 + flow))
    sim.run()
    assert len(received) == n * 2 * 12
    return sim, len(received)


def test_fat_tree_events_per_datagram_gate():
    """Deterministic stand-in for a wall-clock gate: the 16-host
    fat-tree arm costs a pinned number of engine events per delivered
    datagram.  It read 95.6 when a CPU charge or a link transmit cost
    two events (grant, timeout), 60.6 with one event each, 44.6 once a
    frame changed hands (driver to NIC, switch to port, router
    interrupt to worker) without an event and an unjoined process ended
    without one, and reads 42.3 now that a receive interrupt is a chain
    of callbacks and starts no process.

    The arm's other engine fact sits here too: phase-aligned senders
    must land in shared buckets — at least 1.5 events per heap pop
    (1.88 now); a scheduler that stopped batching reads 1.0.
    """
    sim, delivered = _fat_tree_arm()
    engine = sim.engine_stats()
    assert engine["events"] / delivered <= 42.5
    assert engine["events"] / engine["steps"] >= 1.5


def test_fat_tree_calls_per_datagram_gate():
    """The same arm in the ledger's other exact currency: every call
    cProfile sees, Python and C, per delivered datagram, world-building
    included.  1095.5 while the receive path was a generator process
    per interrupt; 927.5 as callbacks chained on the CPU charges."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _, delivered = _fat_tree_arm()
    finally:
        profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    assert calls / delivered <= 950.0


# ----------------------------------------------------------------------
# CPU
# ----------------------------------------------------------------------


def test_cpu_consume_advances_clock_and_meters():
    sim = Simulator()
    cpu = CPU(sim)

    def proc():
        yield from cpu.consume(0.5)

    sim.run(until=sim.process(proc()))
    assert sim.now == 0.5
    assert cpu.busy_time == 0.5


def test_cpu_serializes_consumers():
    sim = Simulator()
    cpu = CPU(sim)
    done = []

    def proc(tag, cost):
        yield from cpu.consume(cost)
        done.append((tag, sim.now))

    sim.process(proc("a", 1.0))
    sim.process(proc("b", 1.0))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]
    assert cpu.busy_time == 2.0


def test_cpu_zero_cost_is_free():
    sim = Simulator()
    cpu = CPU(sim)

    def proc():
        yield from cpu.consume(0.0)
        yield sim.timeout(0)

    sim.run(until=sim.process(proc()))
    assert sim.now == 0.0
    assert cpu.busy_time == 0.0


def test_cpu_negative_cost_rejected():
    sim = Simulator()
    cpu = CPU(sim)

    def proc():
        with pytest.raises(ValueError):
            yield from cpu.consume(-1.0)
        yield sim.timeout(0)

    sim.run(until=sim.process(proc()))
