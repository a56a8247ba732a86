"""The registry's accept: parked on its listener as a message, or served
from the backlog, and answered when the listener goes.

An accept that finds no connection ready holds no registry thread: it
waits on the listener until the passive open that completes one hands
the connection over itself.  One that finds a connection in the backlog
takes it on a worker of its own.  A parked accept whose requester is
gone is passed over.  (A listener that closes answers every accept still
parked on it: ``tests/integration/test_testbed.py``.)
"""

import pytest

from repro import netstat
from repro.mach.ipc import Message, send
from repro.netstat import DropEntry
from repro.sim import Interrupt
from repro.testbed import IP_B, Testbed


def test_an_accept_before_the_syn_and_one_after_it_are_both_granted():
    bed = Testbed(network="ethernet", organization="userlib")
    registry = bed.registry_b
    out = {"got": []}

    def serve(listener):
        # Before any SYN: nothing is ready, so the accept parks.
        conn = yield from listener.accept()
        out["got"].append((yield from conn.recv_exactly(5)))
        # The second connection is established before this accept asks.
        yield bed.sim.timeout(0.2)
        out["backlog"] = len(registry.core.listener(80).backlog)
        conn = yield from listener.accept()
        out["got"].append((yield from conn.recv_exactly(5)))

    def server():
        listener = yield from bed.service_b.listen(80)
        bed.app_b.spawn(serve(listener), name="acceptor")
        yield bed.sim.timeout(0.01)
        out["parked"] = len(registry.core.listener(80).parked)

    def client():
        yield bed.sim.timeout(0.02)
        for data in (b"first", b"again"):
            conn = yield from bed.service_a.connect(IP_B, 80)
            yield from conn.send(data)

    bed.app_b.spawn(server(), name="server")
    bed.app_a.spawn(client(), name="client")
    bed.run(until=2.0)
    assert out == {"got": [b"first", b"again"], "parked": 1, "backlog": 1}
    assert registry.stats["accepts"] == 2


@pytest.mark.parametrize("organization", ["ultrix", "userlib"])
def test_a_connection_passes_over_an_accept_whose_requester_is_gone(organization):
    """The first acceptor is interrupted while parked, its task living on:
    the connection goes to the live acceptor parked behind it, not to the
    stale entry (which would reset it, or leak it unaccepted)."""
    bed = Testbed(network="ethernet", organization=organization)
    out = {}

    def acceptor(listener, tag):
        try:
            conn = yield from listener.accept()
            out[tag] = yield from conn.recv_exactly(5)
        except Interrupt:
            out[tag] = "interrupted"

    def server():
        listener = yield from bed.service_b.listen(80)
        first = bed.app_b.spawn(acceptor(listener, "first"), name="first")
        yield bed.sim.timeout(0.01)
        bed.app_b.spawn(acceptor(listener, "second"), name="second")
        yield bed.sim.timeout(0.01)
        first.interrupt("gone")

    def client():
        yield bed.sim.timeout(0.05)
        conn = yield from bed.service_a.connect(IP_B, 80)
        yield from conn.send(b"hello")

    bed.app_b.spawn(server(), name="server")
    bed.app_a.spawn(client(), name="client")
    bed.run(until=2.0)
    assert out == {"first": "interrupted", "second": b"hello"}
    assert bed.sim.crashed == []


def test_an_acceptor_that_exits_while_parked_leaves_nothing_behind():
    bed = Testbed(network="ethernet", organization="userlib")

    def server():
        listener = yield from bed.service_b.listen(80)
        bed.app_b.spawn(listener.accept(), name="acceptor")
        yield bed.sim.timeout(0.05)
        bed.app_b.terminate()

    bed.app_b.spawn(server(), name="server")
    bed.run(until=1.0)
    assert bed.sim.crashed == []
    assert [row for row in netstat.held(bed) if row[2]] == []


def test_a_frame_for_a_registry_whose_task_exited_is_dropped_and_counted():
    """The SYNs reach host b's kernel path with nobody to run it: each
    is dropped as a ``tcp`` "no consumer" row, and the interface takes
    the next frame."""
    bed = Testbed(network="ethernet", organization="userlib")
    registry = bed.registry_b

    def client():
        yield bed.sim.timeout(0.01)
        registry.task.terminate()
        yield from bed.service_a.connect(IP_B, 80)

    bed.app_a.spawn(client(), name="client")
    bed.run(until=8.0)
    dropped = registry.stats["rx_no_task"]
    assert dropped >= 2  # The SYN and its retransmissions, each taken.
    assert DropEntry(bed.host_b.name, "no consumer", dropped) in netstat.drop_table(bed)
    assert not bed.host_b.nic._rx_interrupt_pending


def test_a_malformed_accept_is_refused_and_the_registry_keeps_serving():
    """The main loop serves an accept itself: a request it cannot read is
    answered with an error there, and the next request is still served."""
    bed = Testbed(network="ethernet", organization="userlib")
    service = bed.service_b
    out = {}

    def app():
        reply = yield from service._rpc(Message("accept", body={}))
        out["malformed"] = reply.op
        listener = yield from service.listen(80)
        out["listening"] = not listener.closed

    bed.app_b.spawn(app(), name="app")
    bed.run(until=1.0)
    assert out == {"malformed": "error", "listening": True}


@pytest.mark.parametrize("op", ["release", "accept"])
def test_a_bad_one_way_request_carrying_a_receive_right_stops_no_service(op):
    """A raw send whose ``reply_to`` is a receive right: the refusal cannot
    answer it, and fails on a thread of its own, not on the main loop."""
    bed = Testbed(network="ethernet", organization="userlib")
    service = bed.service_b
    out = {}

    def app():
        own = bed.app_b.allocate_port(name="not-a-reply-port")
        yield from send(bed.app_b, service._registry_right, Message(op, body={}, reply_to=own))
        yield bed.sim.timeout(0.01)
        listener = yield from service.listen(80)
        out["listening"] = not listener.closed

    bed.app_b.spawn(app(), name="app")
    bed.run(until=1.0)
    assert out == {"listening": True}
    assert bed.sim.crashed == []
