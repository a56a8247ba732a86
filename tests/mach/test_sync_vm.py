"""Tests for user-level synchronization and VM regions.

The C-Threads-style semaphore the library waits on for packets has one
user, the network channel, and lives there: its P operation is the
start of :meth:`Channel.receive_batch`, its V operation
:meth:`Channel.signal`.
"""

import pytest

from repro.costs import DECSTATION_5000_200, FREE
from repro.mach import (
    Kernel,
    PAGE_SIZE,
    SharedRegion,
    vm_wire,
)
from repro.mach.vm import BUFFER_BYTES
from repro.netio.channels import Channel
from repro.sim import Interrupt, Simulator


def make_kernel(costs=FREE):
    sim = Simulator()
    return sim, Kernel(sim, costs, name="h")


def make_channel(costs=FREE):
    """A channel whose template the semaphore never reads."""
    sim, kernel = make_kernel(costs)
    return sim, Channel(kernel.create_task("app"), template=None, region=SharedRegion(4))


# ----------------------------------------------------------------------
# Semaphore (the channel's)
# ----------------------------------------------------------------------


def test_semaphore_banked_signal():
    sim, channel = make_channel()
    channel.signal()
    assert channel.banked == 1

    def reader():
        yield from channel.receive_batch()
        return sim.now

    assert sim.run(until=sim.process(reader())) == 0.0
    assert channel.banked == 0
    assert not channel.last_wait_blocked


def test_semaphore_blocks_until_signal():
    sim, channel = make_channel()
    woke = []

    def reader():
        batch = yield from channel.receive_batch()
        woke.append((sim.now, batch))

    def deliverer():
        yield sim.timeout(4.0)
        assert channel.deliver(b"x")

    sim.process(reader())
    sim.process(deliverer())
    sim.run()
    assert woke == [(4.0, [b"x"])]
    assert channel.last_wait_blocked


def test_semaphore_fifo_wakeup():
    sim, channel = make_channel()
    order = []

    def reader(tag):
        yield from channel.receive_batch()
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(reader(tag))

    def signaler():
        yield sim.timeout(1.0)
        channel.signal(3)

    sim.process(signaler())
    sim.run()
    assert order == ["a", "b", "c"]


def test_semaphore_wait_charges_sync_cost():
    sim, channel = make_channel(DECSTATION_5000_200)
    channel.signal()

    def reader():
        yield from channel.receive_batch()

    sim.run(until=sim.process(reader()))
    assert sim.now == pytest.approx(DECSTATION_5000_200.cthread_sync_op)


def test_semaphore_waiting_count():
    sim, channel = make_channel()

    def reader():
        yield from channel.receive_batch()

    sim.process(reader())
    sim.process(reader())
    sim.run_all(limit=0.0)
    assert channel.waiting == 2
    channel.signal(2)
    sim.run()
    assert channel.waiting == 0


def test_semaphore_interrupted_reader_withdraws():
    """A reader interrupted while parked leaves the queue: the next
    signal is banked, not swallowed by its dead event."""
    sim, channel = make_channel()

    def reader():
        with pytest.raises(Interrupt):
            yield from channel.receive_batch()

    parked = sim.process(reader())

    def interrupter():
        yield sim.timeout(1.0)
        parked.interrupt("terminated")
        yield sim.timeout(1.0)
        channel.signal()

    sim.process(interrupter())
    sim.run()
    assert parked.ok
    assert channel.waiting == 0
    assert channel.banked == 1


def test_semaphore_signal_taken_by_an_interrupted_reader_passes_on():
    """A signal that already picked a reader, which is interrupted
    before it runs, goes to the next parked reader."""
    sim, channel = make_channel()
    woke = []

    def reader(tag):
        try:
            yield from channel.receive_batch()
        except Interrupt:
            woke.append((tag, "interrupted"))
        else:
            woke.append((tag, sim.now))

    first = sim.process(reader("first"))
    sim.process(reader("second"))

    def signaler():
        yield sim.timeout(1.0)
        channel.signal()  # Picks "first" ...
        first.interrupt("handed-off")  # ... which never takes it.

    sim.process(signaler())
    sim.run()
    assert woke == [("first", "interrupted"), ("second", 1.0)]
    assert channel.waiting == 0
    assert channel.banked == 0


# ----------------------------------------------------------------------
# VM regions
# ----------------------------------------------------------------------


def test_vm_wire_pins_and_charges_per_page():
    sim = Simulator()
    kernel = Kernel(sim, DECSTATION_5000_200)

    def proc():
        region = SharedRegion(3 * PAGE_SIZE // BUFFER_BYTES)
        before = sim.now
        yield from vm_wire(kernel, region)
        return region, sim.now - before

    region, wire_time = sim.run(until=sim.process(proc()))
    assert region.pinned and region.pages == 3
    assert wire_time == pytest.approx(3 * DECSTATION_5000_200.vm_wire_page)


def test_vm_wire_idempotent():
    sim, kernel = make_kernel()

    def proc():
        region = SharedRegion(PAGE_SIZE // BUFFER_BYTES)
        yield from vm_wire(kernel, region)
        yield from vm_wire(kernel, region)
        return region

    region = sim.run(until=sim.process(proc()))
    assert region.pinned


def test_region_size_validation():
    with pytest.raises(ValueError):
        SharedRegion(0)
    region = SharedRegion(3)
    assert (region.size, region.pages, region.available) == (3 * BUFFER_BYTES, 2, 3)
