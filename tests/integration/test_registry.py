"""Registry-server behaviour: the paper's §3.4 semantics end-to-end."""

import pytest

from repro.check.failure import (
    NETWORKS,
    REGISTRY_CELLS,
    ULTRIX_CELLS,
    FailureSpec,
    run_cell,
)
from repro.net.headers import An1Header
from repro.netio import SecurityViolation, TemplateViolation
from repro.protocols.tcp import TcpConfig
from repro.registry.namespace import PortInUse, PortNamespace
from repro.testbed import IP_A, IP_B, Testbed


# ----------------------------------------------------------------------
# Port namespace unit behaviour
# ----------------------------------------------------------------------


def test_namespace_reserve_and_conflict():
    ns = PortNamespace(msl=1.0)
    ns.reserve(80, "a", now=0.0)
    with pytest.raises(PortInUse):
        ns.reserve(80, "b", now=0.0)


def test_namespace_linger_blocks_until_2msl():
    ns = PortNamespace(msl=1.0)
    ns.reserve(80, "a", now=0.0)
    ns.release(80, now=10.0, linger=True)
    assert ns.is_lingering(80, now=10.5)
    with pytest.raises(PortInUse):
        ns.reserve(80, "b", now=11.0)  # Within 2*MSL.
    ns.reserve(80, "b", now=12.5)  # After 2*MSL: free again.


def test_namespace_release_without_linger():
    ns = PortNamespace(msl=1.0)
    ns.reserve(80, "a", now=0.0)
    ns.release(80, now=0.0, linger=False)
    ns.reserve(80, "b", now=0.0)


def test_namespace_ephemeral_unique():
    ns = PortNamespace()
    ports = {ns.allocate_ephemeral("x", 0.0) for _ in range(100)}
    assert len(ports) == 100
    assert all(p >= PortNamespace.EPHEMERAL_START for p in ports)


def test_namespace_bad_port_rejected():
    ns = PortNamespace()
    with pytest.raises(ValueError):
        ns.reserve(0, "a", 0.0)
    with pytest.raises(ValueError):
        ns.reserve(70000, "a", 0.0)


# ----------------------------------------------------------------------
# Registry end-to-end semantics
# ----------------------------------------------------------------------


def test_registry_bypassed_on_data_path():
    """Figure 2: after setup, data transfer never touches the registry."""
    testbed = Testbed(network="ethernet", organization="userlib")
    done = {}

    def server():
        listener = yield from testbed.service_b.listen(8000)
        conn = yield from listener.accept()
        data = yield from conn.recv_exactly(50_000)
        done["data"] = data

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 8000)
        segs_before = testbed.registry_a.stats["handshake_segments"]
        ipcs_before = testbed.host_a.kernel.counters.get("ipc_messages", 0)
        yield from conn.send(b"z" * 50_000)
        yield testbed.sim.timeout(0.5)
        done["segs_delta"] = (
            testbed.registry_a.stats["handshake_segments"] - segs_before
        )
        done["ipc_delta"] = (
            testbed.host_a.kernel.counters.get("ipc_messages", 0) - ipcs_before
        )

    testbed.spawn(server(), name="server")
    client_proc = testbed.spawn(client(), name="client")
    testbed.run(until=client_proc)
    assert done["data"] == b"z" * 50_000
    # The registry saw no segments and no IPC during the transfer.
    assert done["segs_delta"] == 0
    assert done["ipc_delta"] == 0


def test_port_lingers_after_release():
    testbed = Testbed(
        network="ethernet", organization="userlib", config=TcpConfig(msl=5.0)
    )

    def scenario():
        listener = yield from testbed.service_b.listen(8100)
        conn_proc = testbed.spawn(
            testbed.service_a.connect(IP_B, 8100), name="c"
        )
        server_conn = yield from listener.accept()
        client_conn = yield conn_proc
        port = client_conn.local_port
        yield from client_conn.close()
        yield from server_conn.close()
        # Still bound through FIN exchange and TIME-WAIT (2*MSL = 10 s).
        yield testbed.sim.timeout(1.0)
        bound_during = testbed.registry_a.ports.is_bound(port, testbed.sim.now)
        # After TIME-WAIT ends the library releases; the registry then
        # holds the port lingering for another protocol delay.
        yield testbed.sim.timeout(10.0)
        lingering_after = testbed.registry_a.ports.is_lingering(
            port, testbed.sim.now
        )
        return bound_during and lingering_after

    proc = testbed.spawn(scenario(), name="scenario")
    assert testbed.run(until=proc)


def test_abnormal_exit_resets_peer():
    """Paper: "To guard against an abnormal application termination,
    the protocol server issues a reset message to the remote peer."""
    testbed = Testbed(network="ethernet", organization="userlib")
    outcome = {}

    def server():
        listener = yield from testbed.service_b.listen(8200)
        conn = yield from listener.accept()
        outcome["server_conn"] = conn
        while True:
            data = yield from conn.recv(1024)
            if not data:
                break
            outcome.setdefault("chunks", []).append(data)

    def client_then_crash():
        conn = yield from testbed.service_a.connect(IP_B, 8200)
        yield from conn.send(b"before the crash")
        yield testbed.sim.timeout(0.5)
        # Abnormal termination: the task dies without closing.
        testbed.app_a.terminate()

    testbed.spawn(server(), name="server")
    crash = testbed.spawn(client_then_crash(), name="crasher")
    testbed.run(until=crash)
    testbed.run(until=testbed.sim.now + 2.0)
    assert testbed.registry_a.stats["inherited"] == 1
    assert testbed.registry_a.stats["resets_sent"] >= 1
    server_conn = outcome["server_conn"]
    assert server_conn.runner.closed_reason == "reset"


def test_exit_mid_connect_leaves_the_registry_no_dead_reply_right():
    """An application that dies while the registry works on its connect
    cannot be answered; the registry drops the send-once reply right it
    was handed instead of holding a dead name for good."""
    testbed = Testbed(network="ethernet", organization="userlib")

    def server():
        listener = yield from testbed.service_b.listen(8250)
        yield from listener.accept()

    def client():
        yield from testbed.service_a.connect(IP_B, 8250)

    testbed.spawn(server(), name="server")
    testbed.spawn(client(), name="client")
    registry = testbed.registry_a.task
    testbed.run(until=0.003)  # Mid-handshake: the reply right is held.
    assert len(registry._rights) == 2
    testbed.app_a.terminate()
    testbed.run(until=5.0)
    assert testbed.registry_a.stats["inherited"] == 1
    assert [right.port.name for right in registry._rights] == ["registry-svc"]


def test_clean_exit_does_not_reset():
    testbed = Testbed(network="ethernet", organization="userlib")

    def scenario():
        listener = yield from testbed.service_b.listen(8300)
        conn_proc = testbed.spawn(
            testbed.service_a.connect(IP_B, 8300), name="c"
        )
        server_conn = yield from listener.accept()
        client_conn = yield conn_proc
        yield from client_conn.close()
        yield from server_conn.close()
        yield testbed.sim.timeout(1.0)
        testbed.app_a.terminate()  # Exit after closing: nothing to reset.
        yield testbed.sim.timeout(0.5)

    proc = testbed.spawn(scenario(), name="scenario")
    testbed.run(until=proc)
    assert testbed.registry_a.stats["resets_sent"] == 0


def test_listen_port_conflict_between_apps():
    testbed = Testbed(network="ethernet", organization="userlib")
    service_b2 = testbed.library_service("bob", "app-b2")

    def scenario():
        yield from testbed.service_b.listen(8400)
        with pytest.raises(OSError):
            yield from service_b2.listen(8400)
        return True

    proc = testbed.spawn(scenario(), name="scenario")
    assert testbed.run(until=proc)


def test_connection_handoff_inetd_style():
    """Paper §3.2: a connection can be passed to another application
    without involving the registry server or the network I/O module."""
    testbed = Testbed(network="ethernet", organization="userlib")
    worker_service = testbed.library_service("bob", "worker")
    worker_app = worker_service.app
    got = {}

    def inetd():
        listener = yield from testbed.service_b.listen(8500)
        conn = yield from listener.accept()
        registry_segments = testbed.registry_b.stats["handshake_segments"]
        # Hand the established connection to the worker task.
        worker_conn = conn.hand_off(worker_app, worker_service)
        got["registry_untouched"] = (
            testbed.registry_b.stats["handshake_segments"] == registry_segments
        )
        testbed.spawn(worker(worker_conn), name="worker")

    def worker(conn):
        data = yield from conn.recv_exactly(11)
        yield from conn.send(data.upper())
        yield from conn.close()

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 8500)
        yield from conn.send(b"hello inetd")
        got["reply"] = yield from conn.recv_exactly(11)
        yield from conn.close()

    testbed.spawn(inetd(), name="inetd")
    client_proc = testbed.spawn(client(), name="client")
    testbed.run(until=client_proc)
    assert got["reply"] == b"HELLO INETD"
    assert got["registry_untouched"]


def test_intruder_cannot_use_anothers_channel():
    """The send capability is bound to the owning task."""
    testbed = Testbed(network="ethernet", organization="userlib")
    intruder = testbed.host_a.create_task("intruder")
    result = {}

    def server():
        listener = yield from testbed.service_b.listen(8600)
        conn = yield from listener.accept()
        yield from conn.recv(100)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 8600)
        packet = b"\x00" * 40  # Doesn't even matter: ownership fails first.
        with pytest.raises(SecurityViolation):
            yield from testbed.host_a.netio.send(
                intruder, conn.channel, packet
            )
        result["refused"] = testbed.host_a.netio.stats["tx_refused"]
        yield from conn.send(b"legitimate")

    testbed.spawn(server(), name="server")
    client_proc = testbed.spawn(client(), name="client")
    testbed.run(until=client_proc)
    assert result["refused"] >= 1


def test_owner_cannot_spoof_other_connection():
    """Template matching: even the owner can't send forged headers."""
    from repro.net.buf import prepend
    from repro.net.headers import Ipv4Header, PROTO_TCP
    from repro.protocols.tcp import Segment, encode_segment
    from repro.net.headers import TCP_ACK

    testbed = Testbed(network="ethernet", organization="userlib")

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 8700)
        # Forge a packet claiming a different source port.
        seg = Segment(
            sport=9999, dport=8700, seq=1, ack=1, flags=TCP_ACK, window=0
        )
        tcp = encode_segment(seg, IP_A, IP_B)
        packet = prepend(
            Ipv4Header(
                src=IP_A, dst=IP_B, protocol=PROTO_TCP,
                total_length=20 + len(tcp),
            ).pack(),
            tcp,
        )
        with pytest.raises(TemplateViolation):
            yield from testbed.host_a.netio.send(
                testbed.app_a, conn.channel, packet
            )
        return True

    def server():
        listener = yield from testbed.service_b.listen(8700)
        yield from listener.accept()

    testbed.spawn(server(), name="server")
    proc = testbed.spawn(client(), name="client")
    assert testbed.run(until=proc)


def test_exhausted_bqi_table_refuses_the_connect_and_leaks_nothing():
    """An AN1 interface has 65,535 BQIs.  With all of them live the
    registry refuses an active open the way it refuses a ring over a
    tenant's quota — an error reply, the reserved port handed back —
    and the next open after one ring is released goes through."""
    testbed = Testbed(network="an1", organization="userlib")
    nic = testbed.host_a.nic
    registry = testbed.registry_a
    filler = nic.allocate_bqi(capacity=1)
    nic.bqi_table.update(
        dict.fromkeys(range(1, An1Header.MAX_BQI + 1), filler)
    )
    outcome = {}

    def server():
        listener = yield from testbed.service_b.listen(8000)
        conn = yield from listener.accept()
        outcome["served"] = yield from conn.recv(64)

    def client():
        try:
            yield from testbed.service_a.connect(IP_B, 8000)
        except ConnectionError as exc:
            outcome["refused"] = str(exc)
        outcome["ports_after_refusal"] = len(registry.ports._ports)
        nic.release_bqi(7)
        conn = yield from testbed.service_a.connect(IP_B, 8000)
        outcome["bqi"] = conn.channel.ring.bqi
        yield from conn.send(b"after the refusal")
        yield testbed.sim.timeout(0.3)

    testbed.spawn(server(), name="server")
    testbed.run(until=testbed.spawn(client(), name="client"))
    assert "BQIs are live" in outcome["refused"]
    assert outcome["ports_after_refusal"] == 0
    assert testbed.host_a.netio.stats["bqi_refused"] == 1
    assert registry.stats["connects"] == 2
    assert outcome["bqi"] == 7
    assert outcome["served"] == b"after the refusal"
    assert len(testbed.host_a.netio.channels) == 1


# ----------------------------------------------------------------------
# The failure axis (repro.check.failure): wherever an operation stops,
# nothing stays held
# ----------------------------------------------------------------------


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("cell", REGISTRY_CELLS)
def test_failure_leaves_nothing_held(network, cell):
    result = run_cell(FailureSpec(cell, network))
    assert result.ok, [str(v) for v in result.violations]


@pytest.mark.parametrize(
    "cell", ULTRIX_CELLS, ids=["mid_handshake", "with_a_connection_in_its_backlog"]
)
def test_listener_closed_resets_the_client_on_ultrix(cell):
    """The monolithic stack's twin of the registry's passive open: a
    connection nobody will accept is aborted, not kept ESTABLISHED."""
    result = run_cell(FailureSpec(cell, "ethernet", "ultrix"))
    assert result.ok, [str(v) for v in result.violations]
