"""Tests for the callback `Transmitter`: FIFO turns on a link, bounded
staging and back-pressure, watchers, and the hand-offs that cost no engine
event."""

import cProfile
from types import SimpleNamespace

import pytest

from repro.costs import FREE
from repro.mach import Kernel
from repro.net import (
    An1Header,
    An1Link,
    An1Nic,
    ETHERTYPE_IP,
    EthernetHeader,
    EthernetLink,
    PmaddNic,
    str_to_mac,
)
from repro.net.fabric import TailDropQueue
from repro.net.link import DuplexLink, Transmitter
from repro import obs
from repro.sim import Simulator

MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")
MAC_C = str_to_mac("02:00:00:00:00:03")


class Endpoint:
    """Minimal link endpoint recording ``(time, frame)`` arrivals."""

    def __init__(self, link, sim):
        self.sim = sim
        self.received = []
        link.attach(self)

    def accepts(self, frame):
        return True

    def wire_deliver(self, frame):
        self.received.append((self.sim.now, frame))


def eth_frame(tag: int, size: int = 100, dst=MAC_B, src=MAC_A) -> bytes:
    return EthernetHeader(dst, src, ETHERTYPE_IP).pack() + bytes([tag]) * size


def an1_frame(tag: int, size: int = 100) -> bytes:
    return An1Header(2, 1, ETHERTYPE_IP, 0).pack() + bytes([tag]) * size


def pmadd_world():
    sim = Simulator()
    link = EthernetLink(sim)
    nic = PmaddNic(Kernel(sim, FREE, name="h0"), link, MAC_A, name="nic0")
    return sim, link, nic, Endpoint(link, sim), eth_frame, PmaddNic.BOARD_BUFFERS


def an1_world():
    sim = Simulator()
    link = An1Link(sim)
    nic = An1Nic(Kernel(sim, FREE, name="h0"), link, station=1, name="an1-0")
    return sim, link, nic, Endpoint(link, sim), an1_frame, An1Nic.TX_DESCRIPTORS


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------


def test_transmitter_sends_fifo_back_to_back():
    sim = Simulator()
    link = DuplexLink(sim)
    sender, peer = Endpoint(link, sim), Endpoint(link, sim)
    transmitter = Transmitter(link, sender, capacity=8)
    frames = [eth_frame(tag, size=100 + 50 * tag) for tag in range(5)]
    for frame in frames:
        assert transmitter.submit(frame) is None
    assert transmitter.busy
    sim.run()
    assert not transmitter.busy
    assert [frame for _, frame in peer.received] == frames
    # Each turn starts the instant the previous one ends.
    at = 0.0
    for (arrived, _), frame in zip(peer.received, frames):
        at += link.wire_time(len(frame))
        assert arrived == pytest.approx(at + link.propagation_delay)
    assert link.stats["frames"] == 5
    assert link.stats["bytes"] == sum(map(len, frames))
    assert transmitter.stats["tx_frames"] == 5
    assert transmitter.stats["tx_bytes"] == sum(map(len, frames))


def test_idle_hand_off_costs_no_engine_event():
    sim = Simulator()
    link = DuplexLink(sim)
    sender, peer = Endpoint(link, sim), Endpoint(link, sim)
    transmitter = Transmitter(link, sender, capacity=4)
    for tag in range(3):
        transmitter.submit(eth_frame(tag))
    sim.run()
    assert len(peer.received) == 3
    # Per frame: the turn on the wire and the delivery.  Nothing else.
    assert sim.engine_stats()["events"] == 6


def test_link_turn_call_gate():
    """One 78-byte frame across a quiet ``DuplexLink``, from
    ``Transmitter.start`` to the peer's ``wire_deliver``, ``sim.run``
    included, in profiled calls (cProfile's count, the ledger's
    ``py_calls_per_op`` currency): 26.  The link delivers to the peers
    it learned at attach, each filtering the frame itself.

    History: 30 while each turn built a receiver list — one
    ``receivers`` call, its list comprehension, one ``_deliver_later``
    — and ``wire_time`` padded a runt with ``max``.
    """
    sim = Simulator()
    link = DuplexLink(sim)
    sender, peer = Endpoint(link, sim), Endpoint(link, sim)
    transmitter = Transmitter(link, sender)
    frame = eth_frame(1, size=64)
    assert len(frame) == 78

    def turn():
        transmitter.start(frame)
        sim.run()

    turn()  # The steady state: every counter has been touched once.
    profiler = cProfile.Profile()
    profiler.runcall(turn)
    assert [received for _, received in peer.received] == [frame, frame]
    assert sum(entry.callcount for entry in profiler.getstats()) <= 27


def test_watchers_see_flat_frame_at_the_instant_its_turn_begins():
    sim = Simulator()
    link = DuplexLink(sim)
    sender = Endpoint(link, sim)
    Endpoint(link, sim)
    seen = []
    link.watchers.append(
        SimpleNamespace(
            offered=lambda frame: seen.append((sim.now, frame)),
            planned=lambda frame, plan: None,
        )
    )
    transmitter = Transmitter(link, sender, capacity=4)
    first, second = eth_frame(1, size=1000), eth_frame(2)
    transmitter.submit(first)
    transmitter.submit(second)  # Staged: not offered to the wire yet.
    assert seen == [(0.0, first)]
    sim.run()
    assert seen == [(0.0, first), (link.wire_time(len(first)), second)]
    assert all(type(frame) is bytes for _, frame in seen)


def test_shared_medium_senders_serialize_on_one_medium():
    sim = Simulator()
    link = EthernetLink(sim)
    a, b, listener = Endpoint(link, sim), Endpoint(link, sim), Endpoint(link, sim)
    frame_a, frame_b = eth_frame(1, size=1000), eth_frame(2, size=1000)
    Transmitter(link, a).start(frame_a)
    Transmitter(link, b).start(frame_b)
    sim.run()
    turn = link.wire_time(len(frame_a))
    arrivals = [(at, frame) for at, frame in listener.received]
    assert arrivals == [
        (pytest.approx(turn + link.propagation_delay), frame_a),
        (pytest.approx(2 * turn + link.propagation_delay), frame_b),
    ]


def test_full_duplex_senders_do_not_contend():
    sim = Simulator()
    link = DuplexLink(sim)
    a, b = Endpoint(link, sim), Endpoint(link, sim)
    frame = eth_frame(1, size=1000)
    Transmitter(link, a).start(frame)
    Transmitter(link, b).start(frame)
    sim.run()
    both = link.wire_time(len(frame)) + link.propagation_delay
    assert [at for at, _ in a.received] == [pytest.approx(both)]
    assert [at for at, _ in b.received] == [pytest.approx(both)]


# ----------------------------------------------------------------------
# Staging and back-pressure, through both NICs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("world", [pmadd_world, an1_world])
def test_nic_stages_capacity_behind_the_frame_in_flight(world):
    sim, link, nic, peer, make_frame, capacity = world()
    assert capacity == 32
    admitted = []

    def sender(tag):
        yield from nic.driver_transmit(make_frame(tag))
        admitted.append((tag, sim.now))

    # One frame in flight (it does not count) plus ``capacity`` staged.
    for tag in range(capacity + 1):
        sim.process(sender(tag))
    sim.run(until=0.0)
    assert [tag for tag, _ in admitted] == list(range(capacity + 1))
    assert nic.stats["tx_frames"] == capacity + 1
    assert nic.stats["tx_bytes"] == (capacity + 1) * len(make_frame(0))
    assert link.stats["frames"] == 0  # Counted when a turn ends.

    # The 34th sender blocks until the first turn ends and frees a slot.
    blocked = sim.process(sender(capacity + 1))
    sim.run(until=0.0)
    assert blocked.is_alive
    assert nic.stats["tx_frames"] == capacity + 1
    sim.run()
    assert not blocked.is_alive
    tag, when = admitted[-1]
    assert tag == capacity + 1 and when > 0.0
    assert nic.stats["tx_frames"] == capacity + 2
    assert [frame[-1] for _, frame in peer.received] == list(range(capacity + 2))


@pytest.mark.parametrize("world", [pmadd_world, an1_world])
def test_blocked_senders_admitted_fifo_and_never_overtaken(world):
    sim, link, nic, peer, make_frame, capacity = world()
    order = []

    def sender(tag):
        yield from nic.driver_transmit(make_frame(tag))
        order.append(tag)

    for tag in range(capacity + 1):
        sim.process(sender(tag))
    first, second = capacity + 1, capacity + 2
    sim.process(sender(first))
    sim.process(sender(second))
    sim.run(until=0.0)
    assert order == list(range(capacity + 1))

    # A newcomer that arrives in the very instant a slot frees — before
    # the sender that slot went to has run again — must find staging
    # full and queue behind both blocked senders.
    newcomer = capacity + 3
    released = []

    def on_release(_frame):
        if len(released) == 1:
            sim.process(sender(newcomer))
        released.append(sim.now)

    # Runs as each later turn begins.
    link.watchers.append(
        SimpleNamespace(offered=on_release, planned=lambda frame, plan: None)
    )
    sim.run()
    assert order == list(range(capacity + 4))
    assert [frame[-1] for _, frame in peer.received] == list(range(capacity + 4))


def test_pmadd_oversized_frame_leaves_staged_traffic_flowing():
    sim, link, nic, peer, make_frame, _ = pmadd_world()
    outcomes = []

    def sender():
        yield from nic.driver_transmit(make_frame(1))
        try:  # Transmitter busy: the staging path must reject it too.
            yield from nic.driver_transmit(make_frame(2, size=2500))
        except ValueError as exc:
            outcomes.append(str(exc))
        yield from nic.driver_transmit(make_frame(3))

    sim.process(sender())
    sim.run()
    assert len(outcomes) == 1 and "2514" in outcomes[0]
    assert [frame[-1] for _, frame in peer.received] == [1, 3]
    assert nic.stats["tx_frames"] == 2


def test_an1_fetch_delay_precedes_each_frames_wire_time():
    sim, link, nic, peer, make_frame, _ = an1_world()
    frames = [make_frame(tag, size=1000) for tag in range(3)]

    def sender():
        for frame in frames:
            yield from nic.driver_transmit(frame)

    sim.process(sender())
    sim.run()
    per_frame = An1Nic.DMA_LATENCY + link.wire_time(len(frames[0]))
    assert [frame for _, frame in peer.received] == frames
    # The DMA fetch of frame n+1 starts when frame n's turn ends: fetch
    # and wire time alternate, never overlap.
    assert [at for at, _ in peer.received] == [
        pytest.approx(n * per_frame + link.propagation_delay) for n in (1, 2, 3)
    ]
    assert link.stats["busy_time"] == pytest.approx(
        3 * link.wire_time(len(frames[0]))
    )


# ----------------------------------------------------------------------
# Egress queue <-> transmitter
# ----------------------------------------------------------------------


def test_queued_frames_record_deq_span_idle_hand_off_does_not():
    sim = Simulator()
    link = DuplexLink(sim)
    port, peer = Endpoint(link, sim), Endpoint(link, sim)
    queue = TailDropQueue(sim, capacity_bytes=4000)
    queue.name = "port"
    queue.transmitter = Transmitter(link, port, pull=queue.pop)
    recorder = obs.enable().spans
    try:
        frames = [eth_frame(tag) for tag in range(3)]
        for frame in frames:
            recorder.bind_wire(frame, recorder.mint(sim.now))
            assert queue.offer(frame)
        sim.run()
    finally:
        obs.disable()
    stages = [
        [event.stage for event in recorder.timeline(tid) if event.node == "port"]
        for tid in dict.fromkeys(event.trace_id for event in recorder.events)
    ]
    # The first frame found the port idle and never sat in the queue.
    assert stages == [
        ["queue.enq"],
        ["queue.enq", "queue.deq"],
        ["queue.enq", "queue.deq"],
    ]
    assert [frame for _, frame in peer.received] == frames
    assert queue.stats["dequeued"] == 3
    assert queue.peak_bytes == 2 * len(frames[0])
