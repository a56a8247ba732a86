"""Registry-server behaviour: the paper's §3.4 semantics end-to-end."""

import pytest

from repro.net.headers import An1Header
from repro.netio import SecurityViolation, TemplateViolation
from repro.netio.demux import DemuxError
from repro.protocols.tcp import State, TcpConfig
from repro.registry.namespace import PortInUse, PortNamespace
from repro.tenancy import QuotaExceeded
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
        packet = (
            Ipv4Header(
                src=IP_A, dst=IP_B, protocol=PROTO_TCP,
                total_length=20 + len(tcp),
            ).pack()
            + tcp
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
        outcome["ports_after_refusal"] = len(registry.ports)
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
# The failure axis: wherever an operation stops, nothing stays held
# ----------------------------------------------------------------------

FAILURE_CONFIG = TcpConfig(msl=0.5, conn_timeout=3.0)
#: Every cell has failed, been reset and waited out TIME-WAIT and the
#: port linger (2*MSL each) well before this.
SETTLED = 12.0


def failure_bed(network, organization="userlib"):
    bed = Testbed(network=network, organization=organization, config=FAILURE_CONFIG)
    for host in bed.hosts:
        host.netio.region_pool_bytes = 1 << 20  # Wired-pool bytes are counted.
    return bed


def drain(conn):
    """Read a connection to its end (EOF or reset), then close it."""
    while (yield from conn.recv(1024)):
        pass
    yield from conn.close()


def serve(bed, seen):
    """Server on host b: accept and drain whatever arrives on port 80,
    stop listening 8 s in."""

    def acceptor(listener):
        while True:
            conn = yield from listener.accept()
            seen["conns"].append(conn)
            bed.spawn(drain(conn))

    def server():
        listener = seen["listener"] = yield from bed.service_b.listen(80)
        bed.spawn(acceptor(listener))
        yield bed.sim.timeout(8.0)
        if not listener.closed:
            listener.close()

    bed.spawn(server())


def request(bed, seen, port=80, then=drain, **kwargs):
    """Client, a thread of the application on host a: one ``connect``
    50 ms in; the error it is answered with lands in ``seen['errors']``,
    a connection is handed to ``then``."""

    def client():
        yield bed.sim.timeout(0.05)
        try:
            conn = yield from bed.service_a.connect(IP_B, port, **kwargs)
        except ConnectionError as exc:
            seen["errors"].append(str(exc))
            return
        seen["conns"].append(conn)
        yield from then(conn)

    spawn = bed.app_a.spawn if bed.registries else bed.spawn
    seen["requesters"].append(spawn(client()))


def at(bed, delay, action):
    """Run ``action()`` ``delay`` seconds after the request starts."""
    bed.sim.call_later(0.05 + delay, lambda _: action(), None)


def cell_ring_refused(bed, seen):
    def refuse(caller, **kwargs):
        raise QuotaExceeded("no ring to spare")

    bed.host_a.netio.allocate_ring = refuse
    request(bed, seen)


def cell_handshake_times_out(bed, seen):
    bed.host_b.tcp_kernel_handler = lambda payload, src_ip, link_info: iter(())
    request(bed, seen)


def cell_peer_refuses(bed, seen):
    request(bed, seen)


def cell_channel_over_quota(bed, seen):
    bed.host_a.netio.region_pool_bytes = 0
    serve(bed, seen)
    request(bed, seen, local_port=5555)


def cell_channel_flow_refused(bed, seen):
    table = bed.host_a.netio.flow_table
    install = table.install

    def refuse_exact(key, target, owner=None):
        if key.is_exact:
            raise DemuxError(f"flow {key} refused")
        install(key, target, owner=owner)

    table.install = refuse_exact
    serve(bed, seen)
    request(bed, seen, local_port=5555)


def cell_requester_dies_mid_handshake(bed, seen):
    serve(bed, seen)
    request(bed, seen)
    at(bed, 0.004, bed.app_a.terminate)


def cell_requester_dies_before_the_reply(bed, seen):
    netio = bed.host_a.netio
    create_channel = netio.create_channel

    def create_then_kill(*args, **kwargs):
        channel = yield from create_channel(*args, **kwargs)
        # At the registry's next wait, the channel in its lease.
        bed.sim.call_later(0.0, lambda _: bed.app_a.terminate(), None)
        return channel

    netio.create_channel = create_then_kill
    serve(bed, seen)
    request(bed, seen)


def cell_listener_closed_mid_handshake(bed, seen):
    serve(bed, seen)
    request(bed, seen)
    at(bed, 0.0097, lambda: seen["listener"].close())


def cell_listener_closed_with_a_connection_in_its_backlog(bed, seen):
    def server():  # Listens, never accepts.
        seen["listener"] = yield from bed.service_b.listen(80)

    bed.spawn(server())
    request(bed, seen)
    at(bed, 0.1, lambda: seen["listener"].close())


def cell_listener_owner_dies_mid_handshake(bed, seen):
    serve(bed, seen)
    request(bed, seen)
    at(bed, 0.0097, bed.app_b.terminate)


def cell_handoff_then_first_owner_exits(bed, seen):
    worker_service = bed.library_service("bob", "worker")

    def inetd():
        listener = yield from bed.service_b.listen(80)
        conn = yield from listener.accept()
        handed = conn.hand_off(worker_service.app, worker_service)
        seen["conns"].append(handed)
        bed.spawn(worker(handed))
        bed.app_b.terminate()  # inetd exits; the worker serves on.

    def worker(conn):
        data = yield from conn.recv_exactly(5)
        yield from conn.send(data.upper())
        seen["inherited_while_served"] = bed.registry_b.stats["inherited"]
        yield bed.sim.timeout(0.5)
        worker_service.app.terminate()  # Abnormal exit: now it is inherited.

    def client(conn):
        yield from conn.send(b"hello")
        seen["echo"] = yield from conn.recv_exactly(5)
        yield from drain(conn)

    bed.spawn(inetd())
    request(bed, seen, then=client)


def cell_terminate_from_own_thread(bed, seen):
    def then(conn):
        yield from conn.send(b"last words")
        yield bed.sim.timeout(0.1)
        bed.app_a.terminate()
        yield bed.sim.timeout(60.0)  # Never served: the thread ends here.
        seen["outlived_its_task"] = True

    serve(bed, seen)
    request(bed, seen, then=then)


def cell_refused_syns_on_a_closed_port(bed, seen):
    for _ in range(5):
        request(bed, seen, port=81)


FAILURE_CELLS = [
    cell_ring_refused,
    cell_handshake_times_out,
    cell_peer_refuses,
    cell_channel_over_quota,
    cell_channel_flow_refused,
    cell_requester_dies_mid_handshake,
    cell_requester_dies_before_the_reply,
    cell_listener_closed_mid_handshake,
    cell_listener_closed_with_a_connection_in_its_backlog,
    cell_listener_owner_dies_mid_handshake,
    cell_handoff_then_first_owner_exits,
    cell_terminate_from_own_thread,
    cell_refused_syns_on_a_closed_port,
]


def run_failure_cell(bed, cell):
    """Run one cell to quiescence and judge it by "nothing held"."""
    seen = {"conns": [], "errors": [], "requesters": []}
    handshakes = []
    for registry in bed.registries:
        def recorded(lease, make=registry._handshake_runner):
            handshakes.append(make(lease))
            return handshakes[-1]

        registry._handshake_runner = recorded
    cell(bed, seen)
    bed.run(until=SETTLED)
    now = bed.sim.now
    # 1. Nothing held, on either host.
    for registry in bed.registries:
        assert not registry._leases, registry._leases
        ports = registry.ports
        assert not [
            p for p in list(ports._ports)
            if ports.is_bound(p, now) or ports.is_lingering(p, now)
        ]
        # No worker ended with an exception (so none died holding a lease).
        assert all(t.is_alive or t.ok for t in registry.task.threads)
    for service in bed.services:
        assert not getattr(service, "_connections", None)
    for host in bed.hosts:
        netio = host.netio
        assert not netio.channels
        assert (netio.flow_table.exact_count, netio.flow_table.wildcard_count) == (0, 0)
        assert netio.region_pool_used == 0
        if host.is_an1:
            assert set(host.nic.bqi_table) == {0}
    # No timer of a handshake, abandoned or completed, is still armed.
    for runner in handshakes:
        assert not any(runner._timers.values()), runner.name
    # 2. Every requester was answered — an error, or a grant — or is dead.
    assert seen["requesters"]
    assert not any(requester.is_alive for requester in seen["requesters"])
    # 3. No connection hangs: each one a living application holds has ended.
    for conn in seen["conns"]:
        if not bed.registries or conn.service.app.alive:
            assert conn.runner.closed_reason is not None, conn
    return seen


@pytest.mark.parametrize("network", ["ethernet", "an1"])
@pytest.mark.parametrize("cell", FAILURE_CELLS, ids=lambda c: c.__name__[5:])
def test_failure_leaves_nothing_held(network, cell):
    bed = failure_bed(network)
    seen = run_failure_cell(bed, cell)
    ended = {c.service.app.name: c.runner.closed_reason for c in seen["conns"]}
    if cell is cell_handoff_then_first_owner_exits:
        # The connection outlived its first owner, untouched, and was
        # inherited (and reset) only when the worker died.
        assert seen["echo"] == b"HELLO"
        assert seen["inherited_while_served"] == 1  # The listener only.
        assert bed.registry_b.stats["inherited"] == 2
        assert ended["app-a"] == "reset"
    elif cell is cell_terminate_from_own_thread:
        assert "outlived_its_task" not in seen and not bed.app_a.alive
        assert bed.registry_a.stats["inherited"] == 1
        assert ended["app-b"] == "reset"
    elif cell in (
        cell_listener_closed_mid_handshake,
        cell_listener_closed_with_a_connection_in_its_backlog,
        cell_listener_owner_dies_mid_handshake,
    ):
        # The handshake completed from the client's side, or was cut
        # short: either way the client is told, not left in recv().
        assert seen["errors"] or ended["app-a"] == "reset"
    else:
        # The requester got an error reply or is dead, and a peer that
        # saw the connection was reset.
        assert seen["errors"] or not bed.app_a.alive
        assert ended.get("app-b", "reset") == "reset"


def cell_listener_closed_mid_handshake_on_ultrix(bed, seen):
    serve(bed, seen)
    request(bed, seen)
    at(bed, 0.0025, lambda: seen["listener"].close())


@pytest.mark.parametrize(
    "cell",
    [
        cell_listener_closed_mid_handshake_on_ultrix,
        cell_listener_closed_with_a_connection_in_its_backlog,
    ],
    ids=["mid_handshake", "with_a_connection_in_its_backlog"],
)
def test_listener_closed_resets_the_client_on_ultrix(cell):
    """The monolithic stack's twin of the registry's passive open: a
    connection nobody will accept is aborted, not kept ESTABLISHED."""
    seen = run_failure_cell(failure_bed("ethernet", organization="ultrix"), cell)
    assert [c.runner.closed_reason for c in seen["conns"]] == ["reset"]
