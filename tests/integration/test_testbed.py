"""End-to-end integration tests over the full testbed.

Every organization on every network moves real TCP bytes through real
links, NICs, and (for the library organization) the registry server and
network I/O module channels.
"""

import pytest

from repro.costs import DECSTATION_5000_200
from repro.net.faults import FaultInjector
from repro.protocols.tcp import TcpConfig
from repro.testbed import IP_A, IP_B, ORGANIZATIONS, Testbed

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

    testbed.spawn(server(), name="server")
    client_proc = testbed.spawn(client(), name="client")
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
        send_done = testbed.spawn(conn.send(b_data), name="b-send")
        got["at_b"] = yield from conn.recv_exactly(len(a_data))
        yield send_done
        yield from conn.close()

    def side_a():
        conn = yield from testbed.service_a.connect(IP_B, 5555)
        send_done = testbed.spawn(conn.send(a_data), name="a-send")
        got["at_a"] = yield from conn.recv_exactly(len(b_data))
        yield send_done
        yield from conn.close()

    b_proc = testbed.spawn(side_b(), name="B")
    a_proc = testbed.spawn(side_a(), name="A")
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

    testbed.spawn(server(), name="server")
    client_proc = testbed.spawn(client(), name="client")
    testbed.run(until=client_proc)
    assert results == [b"msg-0", b"msg-1", b"msg-2"]


def test_concurrent_connections_different_apps():
    """Two applications on one host, each with its own library."""
    testbed = Testbed(network="ethernet", organization="userlib")
    service_a2 = testbed.library_service("alice", "app-a2")
    got = {}

    def server():
        listener = yield from testbed.service_b.listen(7070)
        for _ in range(2):
            conn = yield from listener.accept()
            testbed.spawn(handle(conn), name="handler")

    def handle(conn):
        data = yield from conn.recv_exactly(6)
        yield from conn.send(data.upper())
        yield from conn.close()

    def client(service, tag):
        conn = yield from service.connect(IP_B, 7070)
        yield from conn.send(tag.encode())
        got[tag] = yield from conn.recv_exactly(6)
        yield from conn.close()

    testbed.spawn(server(), name="server")
    c1 = testbed.spawn(client(testbed.service_a, "first!"), name="c1")
    c2 = testbed.spawn(client(service_a2, "second"), name="c2")
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

    proc = testbed.spawn(client(), name="client")
    assert testbed.run(until=proc)


@pytest.mark.parametrize("organization", ["ultrix", "mach-ux", "userlib"])
def test_closing_a_listener_fails_its_parked_accept(organization):
    """An accept blocked when its listener closes is told, not stranded:
    the registry's accept worker and the kernel's backlog both wake it."""
    testbed = Testbed(network="ethernet", organization=organization)
    out = {}

    def acceptor(listener):
        try:
            yield from listener.accept()
        except ConnectionError as exc:
            out["error"] = str(exc)
        out["at"] = testbed.sim.now

    def server():
        listener = yield from testbed.service_b.listen(7100)
        testbed.spawn(acceptor(listener), name="acceptor")
        yield testbed.sim.timeout(0.1)
        out["closed_at"] = testbed.sim.now
        listener.close()

    testbed.spawn(server(), name="server")
    testbed.run(until=5.0)
    assert "closed" in out.get("error", ""), out
    assert out["at"] - out["closed_at"] < 0.1
    for registry in testbed.registries:
        assert [t.name for t in registry.task.threads if t.is_alive] == ["registry/main"]


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

    proc = testbed.spawn(pinger(), name="ping")
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

    proc = testbed.spawn(sender(), name="udp")
    testbed.run(until=proc)
    testbed.run(until=testbed.sim.now + 0.1)
    assert len(got) == 1
    assert got[0].payload == b"query"
    assert got[0].src_port == 1234
