"""Tests for user-level synchronization and VM regions."""

import pytest

from repro.costs import DECSTATION_5000_200, FREE
from repro.mach import (
    Kernel,
    PAGE_SIZE,
    Semaphore,
    SharedRegion,
    vm_allocate,
    vm_map,
    vm_unmap,
    vm_wire,
)
from repro.sim import Simulator


def make_kernel(costs=FREE):
    sim = Simulator()
    return sim, Kernel(sim, costs, name="h")


# ----------------------------------------------------------------------
# Semaphore
# ----------------------------------------------------------------------


def test_semaphore_banked_signal():
    sim, kernel = make_kernel()
    sem = Semaphore(kernel)
    sem.signal()
    assert sem.value == 1

    def waiter():
        yield from sem.wait()
        return sim.now

    assert sim.run(until=sim.process(waiter())) == 0.0
    assert sem.value == 0


def test_semaphore_blocks_until_signal():
    sim, kernel = make_kernel()
    sem = Semaphore(kernel)
    woke = []

    def waiter():
        yield from sem.wait()
        woke.append(sim.now)

    def signaler():
        yield sim.timeout(4.0)
        sem.signal()

    sim.process(waiter())
    sim.process(signaler())
    sim.run()
    assert woke == [4.0]


def test_semaphore_fifo_wakeup():
    sim, kernel = make_kernel()
    sem = Semaphore(kernel)
    order = []

    def waiter(tag):
        yield from sem.wait()
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(waiter(tag))

    def signaler():
        yield sim.timeout(1.0)
        sem.signal(3)

    sim.process(signaler())
    sim.run()
    assert order == ["a", "b", "c"]


def test_semaphore_initial_value_validation():
    _, kernel = make_kernel()
    with pytest.raises(ValueError):
        Semaphore(kernel, value=-1)


def test_semaphore_wait_charges_sync_cost():
    sim = Simulator()
    kernel = Kernel(sim, DECSTATION_5000_200)
    sem = Semaphore(kernel, value=1)

    def proc():
        yield from sem.wait()

    sim.run(until=sim.process(proc()))
    assert sim.now == pytest.approx(DECSTATION_5000_200.cthread_sync_op)


def test_semaphore_waiting_count():
    sim, kernel = make_kernel()
    sem = Semaphore(kernel)

    def waiter():
        yield from sem.wait()

    sim.process(waiter())
    sim.process(waiter())
    sim.run_all(limit=0.0)
    assert sem.waiting == 2
    sem.signal(2)
    sim.run()
    assert sem.waiting == 0


# ----------------------------------------------------------------------
# VM regions
# ----------------------------------------------------------------------


def test_vm_allocate_maps_into_task():
    sim, kernel = make_kernel()
    task = kernel.create_task("app")

    def proc():
        region = yield from vm_allocate(kernel, task, 8192, name="bufs")
        return region

    region = sim.run(until=sim.process(proc()))
    assert region.is_mapped(task)
    assert region.pages == 2


def test_vm_map_shares_region():
    sim, kernel = make_kernel()
    a = kernel.create_task("a")
    b = kernel.create_task("b")

    def proc():
        region = yield from vm_allocate(kernel, a, PAGE_SIZE)
        yield from vm_map(kernel, region, b)
        return region

    region = sim.run(until=sim.process(proc()))
    assert region.is_mapped(a) and region.is_mapped(b)
    vm_unmap(region, b)
    assert not region.is_mapped(b)


def test_vm_wire_pins_and_charges_per_page():
    sim = Simulator()
    kernel = Kernel(sim, DECSTATION_5000_200)
    task = kernel.create_task("app")

    def proc():
        region = yield from vm_allocate(kernel, task, 3 * PAGE_SIZE)
        before = sim.now
        yield from vm_wire(kernel, region)
        return region, sim.now - before

    region, wire_time = sim.run(until=sim.process(proc()))
    assert region.pinned
    assert wire_time == pytest.approx(3 * DECSTATION_5000_200.vm_wire_page)


def test_vm_wire_idempotent():
    sim, kernel = make_kernel()
    task = kernel.create_task("app")

    def proc():
        region = yield from vm_allocate(kernel, task, PAGE_SIZE)
        yield from vm_wire(kernel, region)
        yield from vm_wire(kernel, region)
        return region

    region = sim.run(until=sim.process(proc()))
    assert region.pinned


def test_region_size_validation():
    _, kernel = make_kernel()
    with pytest.raises(ValueError):
        SharedRegion(kernel, 0)
