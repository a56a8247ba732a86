"""Tests for ports, capabilities, and costed IPC."""

import pytest

from repro.costs import DECSTATION_5000_200, FREE
from repro.mach import (
    CapabilityViolation,
    DeadPortError,
    Kernel,
    Message,
    receive,
    reply_to,
    rpc,
    send,
)
from repro.sim import Interrupt, Simulator


def make_kernel(costs=FREE):
    sim = Simulator()
    return sim, Kernel(sim, costs, name="h")


def test_allocate_port_grants_receive_right():
    _, kernel = make_kernel()
    task = kernel.create_task("app")
    right = task.allocate_port("p")
    assert right.is_receive
    assert task.holds(right)


def test_send_right_minted_from_receive_right():
    _, kernel = make_kernel()
    task = kernel.create_task("app")
    rx = task.allocate_port()
    tx = task.make_send_right(rx)
    assert tx.is_send
    assert tx.port is rx.port


def test_cannot_mint_send_from_send():
    _, kernel = make_kernel()
    task = kernel.create_task("app")
    rx = task.allocate_port()
    tx = task.make_send_right(rx)
    with pytest.raises(CapabilityViolation):
        task.make_send_right(tx)


def test_send_and_receive_message():
    sim, kernel = make_kernel()
    server = kernel.create_task("server")
    client = kernel.create_task("client")
    rx = server.allocate_port("svc")
    tx = server.make_send_right(rx)
    client.insert_right(tx)
    got = []

    def server_proc():
        msg = yield from receive(server, rx)
        got.append((msg.op, msg.body))

    def client_proc():
        yield from send(client, tx, Message("hello", body=42))

    sim.process(server_proc())
    sim.process(client_proc())
    sim.run()
    assert got == [("hello", 42)]


def test_send_without_right_is_violation():
    sim, kernel = make_kernel()
    server = kernel.create_task("server")
    intruder = kernel.create_task("intruder")
    rx = server.allocate_port()
    tx = server.make_send_right(rx)  # Never given to intruder.

    def attack():
        with pytest.raises(CapabilityViolation):
            yield from send(intruder, tx, Message("spoof"))

    sim.run(until=sim.process(attack()))


def test_receive_requires_receive_right():
    sim, kernel = make_kernel()
    server = kernel.create_task("server")
    other = kernel.create_task("other")
    rx = server.allocate_port()
    tx = server.make_send_right(rx)
    other.insert_right(tx)

    def attack():
        with pytest.raises(CapabilityViolation):
            yield from receive(other, tx)

    sim.run(until=sim.process(attack()))


def test_send_once_right_consumed():
    sim, kernel = make_kernel()
    server = kernel.create_task("server")
    client = kernel.create_task("client")
    rx = server.allocate_port()
    once = server.make_send_right(rx, once=True)
    client.insert_right(once)
    server.remove_right(once)

    def client_proc():
        yield from send(client, once, Message("first"))
        with pytest.raises(CapabilityViolation):
            yield from send(client, once, Message("second"))

    sim.run(until=sim.process(client_proc()))


def test_moved_rights_change_capability_space():
    sim, kernel = make_kernel()
    registry = kernel.create_task("registry", privileged=True)
    app = kernel.create_task("app")
    app_rx = app.allocate_port("app-box")
    app_tx = app.make_send_right(app_rx)
    registry.insert_right(app_tx)
    app.remove_right(app_tx)

    # Registry owns a device channel and hands the app a send right to it.
    dev_rx = registry.allocate_port("channel")
    dev_tx = registry.make_send_right(dev_rx)

    def registry_proc():
        yield from send(
            registry, app_tx, Message("channel", moved_rights=(dev_tx,))
        )

    def app_proc():
        msg = yield from receive(app, app_rx)
        (moved,) = msg.moved_rights
        assert app.holds(moved)
        assert not registry.holds(moved)
        # The app can now use the channel.
        yield from send(app, moved, Message("data"))
        return True

    sim.process(registry_proc())
    assert sim.run(until=sim.process(app_proc()))


def test_rpc_round_trip():
    sim, kernel = make_kernel()
    server = kernel.create_task("server")
    client = kernel.create_task("client")
    rx = server.allocate_port()
    tx = server.make_send_right(rx)
    client.insert_right(tx)

    def server_proc():
        request = yield from receive(server, rx)
        yield from reply_to(
            server, request, Message("reply", body=request.body * 2)
        )

    def client_proc():
        reply = yield from rpc(client, tx, Message("request", body=21))
        return reply.body

    sim.process(server_proc())
    assert sim.run(until=sim.process(client_proc())) == 42


def test_rpc_reply_without_reply_port_rejected():
    sim, kernel = make_kernel()
    server = kernel.create_task("server")

    def proc():
        with pytest.raises(ValueError):
            yield from reply_to(server, Message("no-reply"), Message("r"))

    sim.run(until=sim.process(proc()))


def test_send_to_dead_port_fails():
    sim, kernel = make_kernel()
    server = kernel.create_task("server")
    client = kernel.create_task("client")
    rx = server.allocate_port()
    tx = server.make_send_right(rx)
    client.insert_right(tx)
    server.destroy_port(rx)

    def proc():
        with pytest.raises(DeadPortError):
            yield from send(client, tx, Message("late"))

    sim.run(until=sim.process(proc()))


def test_ipc_charges_cost_model():
    sim = Simulator()
    kernel = Kernel(sim, DECSTATION_5000_200, name="h")
    a = kernel.create_task("a")
    b = kernel.create_task("b")
    rx = a.allocate_port()
    tx = a.make_send_right(rx)
    b.insert_right(tx)
    nbytes = 1024

    def sender():
        yield from send(b, tx, Message("data", inline_bytes=nbytes))

    def receiver():
        yield from receive(a, rx)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    expected = DECSTATION_5000_200.ipc_cost(nbytes)
    assert sim.now == pytest.approx(expected)


def test_ipc_message_counter():
    sim, kernel = make_kernel()
    a = kernel.create_task("a")
    b = kernel.create_task("b")
    rx = a.allocate_port()
    tx = a.make_send_right(rx)
    b.insert_right(tx)

    def proc():
        yield from send(b, tx, Message("one"))
        yield from send(b, tx, Message("two"))

    sim.run(until=sim.process(proc()))
    assert kernel.counters["ipc_messages"] == 2


def test_task_terminate_destroys_ports_and_runs_hooks():
    sim, kernel = make_kernel()
    app = kernel.create_task("app")
    rx = app.allocate_port()
    hooked = []
    app.on_exit(lambda task: hooked.append(task.name))
    app.terminate()
    assert hooked == ["app"]
    assert rx.port.dead
    assert not app.alive
    # Idempotent.
    app.terminate()
    assert hooked == ["app"]
    # A hook registered on a task already dead runs at once: nobody
    # will walk the list again.
    app.on_exit(lambda task: hooked.append("late"))
    assert hooked == ["app", "late"]


def test_task_terminate_interrupts_threads():
    sim, kernel = make_kernel()
    app = kernel.create_task("app")
    outcomes = []

    def worker():
        try:
            yield sim.timeout(1000.0)
            outcomes.append("finished")
        except BaseException as exc:  # Interrupt
            outcomes.append(type(exc).__name__)

    app.spawn(worker(), name="w")

    def killer():
        yield sim.timeout(1.0)
        app.terminate()

    sim.process(killer())
    sim.run()
    assert outcomes == ["Interrupt"]


def test_task_terminate_from_its_own_thread_completes_and_ends_it():
    """exit() from a thread of the task: rights dropped and hooks run
    (it used to raise "a process cannot interrupt itself" half way,
    leaving a dead task nothing inherited), siblings interrupted, and
    the caller itself stopped at its next wait."""
    sim, kernel = make_kernel()
    app = kernel.create_task("app")
    rx = app.allocate_port()
    outcomes = []
    app.on_exit(lambda task: outcomes.append("hook"))

    def sibling():
        try:
            yield sim.timeout(1000.0)
        except Interrupt:
            outcomes.append(f"sibling interrupted at {sim.now}")

    def caller():
        yield sim.timeout(1.0)
        app.terminate()
        outcomes.append("terminate returned")
        try:
            yield sim.timeout(1000.0)
            outcomes.append("outlived its task")
        except Interrupt:
            outcomes.append(f"caller interrupted at {sim.now}")

    app.spawn(sibling(), name="s")
    app.spawn(caller(), name="c")
    sim.run()
    assert rx.port.dead and not app.alive
    assert outcomes == [
        "hook",
        "terminate returned",
        "sibling interrupted at 1.0",
        "caller interrupted at 1.0",
    ]


def test_spawn_on_dead_task_rejected():
    sim, kernel = make_kernel()
    app = kernel.create_task("app")
    app.terminate()

    def worker():
        yield sim.timeout(0)

    with pytest.raises(RuntimeError):
        app.spawn(worker())
