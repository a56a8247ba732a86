"""End-to-end integration tests over the full testbed.

Every organization on every network moves real TCP bytes through real
links, NICs, and (for the library organization) the registry server and
network I/O module channels.
"""

import pytest

from repro import netstat
from repro.costs import DECSTATION_5000_200
from repro.net.faults import FaultInjector
from repro.net.headers import TCP_RST
from repro.protocols.tcp import TcpConfig
from repro.testbed import IP_A, IP_B, ORGANIZATIONS, Testbed
from repro.trace import WireTrace

ALL_CONFIGS = [
    pytest.param(net, org, id=f"{net}-{org}")
    for net in ("ethernet", "an1")
    for org in ORGANIZATIONS
]


def run_echo(testbed, payload: bytes, port: int = 7000) -> dict:
    """Client sends payload; server echoes it back; returns results."""
    out = {}

    def server():
        listener = yield from testbed.service_b.listen(port)
        conn = yield from listener.accept()
        data = yield from conn.recv_exactly(len(payload))
        yield from conn.send(data)
        yield from conn.close()

    def client():
        conn = yield from testbed.service_a.connect(IP_B, port)
        yield from conn.send(payload)
        echo = yield from conn.recv_exactly(len(payload))
        out["echo"] = echo
        yield from conn.close()

    testbed.app_b.spawn(server(), name="server")
    client_proc = testbed.app_a.spawn(client(), name="client")
    testbed.run(until=client_proc)
    return out


@pytest.mark.parametrize("network,organization", ALL_CONFIGS)
def test_echo_roundtrip_all_organizations(network, organization):
    testbed = Testbed(network=network, organization=organization)
    payload = bytes(range(256)) * 64  # 16 KB.
    out = run_echo(testbed, payload)
    assert out["echo"] == payload


@pytest.mark.parametrize("network,organization", ALL_CONFIGS)
def test_transfer_under_loss_all_organizations(network, organization):
    faults = FaultInjector(drop_rate=0.08, seed=7)
    testbed = Testbed(
        network=network,
        organization=organization,
        faults=faults,
        config=TcpConfig(min_rto=0.3, initial_rto=0.5),
    )
    payload = bytes(range(256)) * 80  # 20 KB.
    out = run_echo(testbed, payload)
    assert out["echo"] == payload
    assert faults.stats["dropped"] > 0  # The fault injector really fired.


def test_transfer_under_corruption_checksums_protect():
    faults = FaultInjector(corrupt_rate=0.05, seed=3)
    testbed = Testbed(
        network="ethernet",
        organization="userlib",
        faults=faults,
        config=TcpConfig(min_rto=0.3, initial_rto=0.5),
    )
    payload = bytes(range(256)) * 64
    out = run_echo(testbed, payload)
    assert out["echo"] == payload
    assert faults.stats["corrupted"] > 0


def test_bidirectional_concurrent_streams():
    testbed = Testbed(network="ethernet", organization="userlib")
    a_data = b"A" * 30_000
    b_data = b"B" * 30_000
    got = {}

    def side_b():
        listener = yield from testbed.service_b.listen(5555)
        conn = yield from listener.accept()
        send_done = testbed.app_b.spawn(conn.send(b_data), name="b-send")
        got["at_b"] = yield from conn.recv_exactly(len(a_data))
        yield send_done
        yield from conn.close()

    def side_a():
        conn = yield from testbed.service_a.connect(IP_B, 5555)
        send_done = testbed.app_a.spawn(conn.send(a_data), name="a-send")
        got["at_a"] = yield from conn.recv_exactly(len(b_data))
        yield send_done
        yield from conn.close()

    b_proc = testbed.app_b.spawn(side_b(), name="B")
    a_proc = testbed.app_a.spawn(side_a(), name="A")
    testbed.run(until=a_proc)
    testbed.run(until=b_proc)
    assert got["at_b"] == a_data
    assert got["at_a"] == b_data


def test_multiple_sequential_connections_same_port_pair():
    testbed = Testbed(network="ethernet", organization="userlib",
                      config=TcpConfig(msl=0.05))
    results = []

    def server():
        listener = yield from testbed.service_b.listen(6000)
        for i in range(3):
            conn = yield from listener.accept()
            data = yield from conn.recv_exactly(5)
            results.append(data)
            yield from conn.close()

    def client():
        for i in range(3):
            conn = yield from testbed.service_a.connect(IP_B, 6000)
            yield from conn.send(f"msg-{i}".encode())
            yield from conn.close()
            yield testbed.sim.timeout(1.0)

    testbed.app_b.spawn(server(), name="server")
    client_proc = testbed.app_a.spawn(client(), name="client")
    testbed.run(until=client_proc)
    assert results == [b"msg-0", b"msg-1", b"msg-2"]


@pytest.mark.parametrize("organization", ["ultrix", "userlib"])
def test_explicit_port_in_time_wait_is_refused(organization):
    """A connect naming a local port whose last connection is still in
    TIME-WAIT is refused on every organization.  The connection made
    instead outlives that TIME-WAIT unharmed: when the old PCB goes, it
    takes no live connection with it, and no segment draws a RST."""
    testbed = Testbed(network="ethernet", organization=organization,
                      config=TcpConfig(msl=0.5))
    trace = WireTrace(testbed.link)
    got, refused = [], []

    def server():
        listener = yield from testbed.service_b.listen(6000)
        for _ in range(2):
            conn = yield from listener.accept()
            got.append(b"")
            while data := (yield from conn.recv(4096)):
                got[-1] += data
            yield from conn.close()

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 6000, local_port=5000)
        yield from conn.close()  # Active close: port 5000 waits out 2·MSL.
        yield testbed.sim.timeout(0.05)
        try:
            conn = yield from testbed.service_a.connect(IP_B, 6000, local_port=5000)
        except OSError as error:
            refused.append(error)
            conn = yield from testbed.service_a.connect(IP_B, 6000)
        for _ in range(10):  # 2 s of traffic, across the old TIME-WAIT's end.
            yield from conn.send(b"x" * 300)
            yield testbed.sim.timeout(0.2)
        yield from conn.close()

    testbed.app_b.spawn(server(), name="server")
    testbed.run(until=testbed.app_a.spawn(client(), name="client"))
    testbed.run(until=testbed.sim.now + 1.0)
    assert len(refused) == 1
    assert got == [b"", b"x" * 3000]
    resets = [r for r in trace.records if r.protocol == "tcp" and r.layers[-1].flags & TCP_RST]
    assert resets == []


def test_kernel_connect_to_an_unknown_station_gives_its_port_back():
    testbed = Testbed(network="an1", organization="ultrix")
    stack, errors = testbed.service_a, []

    def client():
        try:
            yield from stack.connect(IP_B + 1, 80, local_port=5000)
        except LookupError as error:
            errors.append(error)

    testbed.run(until=testbed.app_a.spawn(client(), name="client"))
    assert len(errors) == 1
    assert (stack.core.leases, stack.core.held(testbed.sim.now)) == ({}, {})


@pytest.mark.parametrize("organization", ["ultrix", "userlib"])
def test_an_aborted_connection_holds_nothing(organization):
    """``abort()`` gives its end back with its RST; the reset end goes
    back when it closes, the listener when it does."""
    testbed = Testbed(network="ethernet", organization=organization, config=TcpConfig(msl=0.5))

    def server():
        listener = yield from testbed.service_b.listen(7200)
        conn = yield from listener.accept()
        while (yield from conn.recv(1024)):
            pass
        yield from conn.close()
        listener.close()

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 7200)
        yield from conn.send(b"bye")
        yield from conn.abort()

    testbed.app_b.spawn(server(), name="server")
    testbed.app_a.spawn(client(), name="client")
    testbed.run(until=5.0)
    assert [(subject, what) for subject, what, held in netstat.held(testbed) if held] == []


def test_concurrent_connections_different_apps():
    """Two applications on one host, each with its own library."""
    testbed = Testbed(network="ethernet", organization="userlib")
    service_a2 = testbed.library_service("alice", "app-a2")
    got = {}

    def server():
        listener = yield from testbed.service_b.listen(7070)
        for _ in range(2):
            conn = yield from listener.accept()
            testbed.app_b.spawn(handle(conn), name="handler")

    def handle(conn):
        data = yield from conn.recv_exactly(6)
        yield from conn.send(data.upper())
        yield from conn.close()

    def client(service, tag):
        conn = yield from service.connect(IP_B, 7070)
        yield from conn.send(tag.encode())
        got[tag] = yield from conn.recv_exactly(6)
        yield from conn.close()

    testbed.app_b.spawn(server(), name="server")
    c1 = testbed.app_a.spawn(client(testbed.service_a, "first!"), name="c1")
    c2 = service_a2.app.spawn(client(service_a2, "second"), name="c2")
    testbed.run(until=c1)
    testbed.run(until=c2)
    assert got["first!"] == b"FIRST!"
    assert got["second"] == b"SECOND"


def test_connect_to_closed_port_refused():
    testbed = Testbed(network="ethernet", organization="userlib")

    def client():
        with pytest.raises(ConnectionError):
            yield from testbed.service_a.connect(IP_B, 9999)
        return True

    proc = testbed.app_a.spawn(client(), name="client")
    assert testbed.run(until=proc)


@pytest.mark.parametrize("organization", ["ultrix", "mach-ux", "userlib"])
def test_closing_a_listener_fails_its_parked_accept(organization):
    """Every accept blocked when its listener closes is told, not
    stranded: the registry answers each parked request, a kernel stack
    fails each parked event."""
    testbed = Testbed(network="ethernet", organization=organization)
    out = {"errors": [], "at": []}

    def acceptor(listener):
        try:
            yield from listener.accept()
        except ConnectionError as exc:
            out["errors"].append(str(exc))
        out["at"].append(testbed.sim.now)

    def server():
        listener = yield from testbed.service_b.listen(7100)
        for i in range(3):
            testbed.app_b.spawn(acceptor(listener), name=f"acceptor-{i}")
        yield testbed.sim.timeout(0.1)
        out["closed_at"] = testbed.sim.now
        listener.close()

    testbed.app_b.spawn(server(), name="server")
    testbed.run(until=5.0)
    assert out["errors"] == ["listener on port 7100 closed"] * 3, out
    assert all(at - out["closed_at"] < 0.1 for at in out["at"])
    for registry in testbed.registries:
        assert [t.name for t in registry.task.threads if t.is_alive] == ["registry/main"]


def test_a_registry_terminated_before_its_first_step_runs_nothing():
    """A task terminated before ``sim.run()`` stops its threads before
    their first step: the registry's main loop used to take it on the
    dead task and fail with ``CapabilityViolation``."""
    bed = Testbed(network="ethernet", organization="userlib")
    bed.registry_a.task.terminate()
    bed.run()
    assert bed.sim.crashed == []
    assert not any(thread.is_alive for thread in bed.registry_a.task.threads)


@pytest.mark.parametrize("organization", ["ultrix", "userlib"])
def test_icmp_ping_works_alongside_tcp(organization):
    from repro.net.headers import PROTO_ICMP
    from repro.protocols.icmp import decode_echo, encode_echo

    testbed = Testbed(network="ethernet", organization=organization)
    replies = []

    # Capture ICMP replies on host A via the kernel dispatch.
    original = testbed.host_a._kernel_rx

    def spying_rx(ethertype, payload, link_info, done):
        from repro.net.headers import ETHERTYPE_IP, Ipv4Header

        if ethertype == ETHERTYPE_IP:
            datagram = Ipv4Header.unpack(payload, verify=False)
            if datagram.protocol == PROTO_ICMP:
                echo = decode_echo(payload[20:])
                if echo and not echo.is_request:
                    replies.append(echo)
        original(ethertype, payload, link_info, done)

    testbed.host_a.netio.kernel_rx = spying_rx

    def pinger():
        request = encode_echo(True, ident=1, seq=1, payload=b"ping")
        yield from testbed.host_a.ip_send(IP_B, PROTO_ICMP, request)
        yield testbed.sim.timeout(0.1)

    proc = testbed.app_a.spawn(pinger(), name="ping")
    testbed.run(until=proc)
    testbed.run(until=testbed.sim.now + 0.2)
    assert len(replies) == 1
    assert replies[0].payload == b"ping"


def test_udp_datagram_between_hosts():
    from repro.net.headers import PROTO_UDP
    from repro.protocols.udp import encode_datagram

    testbed = Testbed(network="ethernet", organization="userlib")
    got = []
    testbed.host_b.udp_ports.bind(53, got.append)

    def sender():
        wire = encode_datagram(1234, 53, b"query", IP_A, IP_B)
        yield from testbed.host_a.ip_send(IP_B, PROTO_UDP, wire)

    proc = testbed.app_a.spawn(sender(), name="udp")
    testbed.run(until=proc)
    testbed.run(until=testbed.sim.now + 0.1)
    assert len(got) == 1
    assert got[0].payload == b"query"
    assert got[0].src_port == 1234
