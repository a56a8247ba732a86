"""Tests for the user-level UDP library: protected channels for a
connectionless protocol, with BQI discovery on AN1 (paper §5)."""

import pytest

from repro.netio import TemplateViolation
from repro.org.udplib import LibraryUdpService
from repro.testbed import IP_A, IP_B, Testbed


def make_services(network="ethernet"):
    testbed = Testbed(network=network, organization="userlib")
    udp_a = LibraryUdpService(testbed.host_a, testbed.app_a, testbed.registry_a)
    udp_b = LibraryUdpService(testbed.host_b, testbed.app_b, testbed.registry_b)
    return testbed, udp_a, udp_b


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_udp_datagram_round_trip(network):
    testbed, udp_a, udp_b = make_services(network)
    got = {}

    def server():
        endpoint = yield from udp_b.bind(5353)
        data, (src_ip, src_port) = yield from endpoint.recvfrom()
        got["request"] = data
        yield from endpoint.sendto(src_ip, src_port, b"response:" + data)

    def client():
        endpoint = yield from udp_a.bind(0)
        yield from endpoint.sendto(IP_B, 5353, b"ping")
        data, addr = yield from endpoint.recvfrom()
        got["reply"] = data
        got["reply_from"] = addr

    testbed.spawn(server(), name="server")
    proc = testbed.spawn(client(), name="client")
    testbed.run(until=proc)
    assert got["request"] == b"ping"
    assert got["reply"] == b"response:ping"
    assert got["reply_from"] == (IP_B, 5353)


def test_udp_ethernet_uses_channel_demux():
    testbed, udp_a, udp_b = make_services("ethernet")

    def scenario():
        endpoint_b = yield from udp_b.bind(6000)
        endpoint_a = yield from udp_a.bind(0)
        for i in range(5):
            yield from endpoint_a.sendto(IP_B, 6000, f"m{i}".encode())
        for i in range(5):
            data, _ = yield from endpoint_b.recvfrom()
        return endpoint_b

    proc = testbed.spawn(scenario(), name="scenario")
    endpoint_b = testbed.run(until=proc)
    # All five datagrams were demultiplexed straight to the channel.
    assert endpoint_b.stats["received"] == 5
    assert testbed.host_b.netio.stats["rx_demuxed"] >= 5


def test_udp_an1_bqi_discovery():
    """First datagram travels BQI 0 (kernel path); the response carries
    the advertised ring index; everything after rides hardware demux."""
    testbed, udp_a, udp_b = make_services("an1")
    state = {}

    def scenario():
        endpoint_b = yield from udp_b.bind(7000)
        endpoint_a = yield from udp_a.bind(0)
        assert endpoint_a.peer_bqi == {}  # Nothing discovered yet.
        ring_deliveries_before = endpoint_b.channel.region.stats["delivered"]

        # First request: the sender knows no BQI -> kernel path.
        yield from endpoint_a.sendto(IP_B, 7000, b"first")
        data, (src_ip, src_port) = yield from endpoint_b.recvfrom()
        state["first_via_ring"] = (
            endpoint_b.channel.region.stats["delivered"]
            > ring_deliveries_before
        )
        # B learned A's ring from the datagram's advertised BQI.
        assert endpoint_b.peer_bqi.get(IP_A) == endpoint_a.channel.region.bqi

        # Response: B now stamps A's ring; A learns B's ring from it.
        yield from endpoint_b.sendto(src_ip, src_port, b"pong")
        yield from endpoint_a.recvfrom()
        assert endpoint_a.peer_bqi.get(IP_B) == endpoint_b.channel.region.bqi

        # Second request: hardware demux straight into B's ring.
        before = endpoint_b.channel.region.stats["delivered"]
        yield from endpoint_a.sendto(IP_B, 7000, b"second")
        yield from endpoint_b.recvfrom()
        state["second_via_ring"] = (
            endpoint_b.channel.region.stats["delivered"] == before + 1
        )

    proc = testbed.spawn(scenario(), name="scenario")
    testbed.run(until=proc)
    assert not state["first_via_ring"]  # Kernel fallback.
    assert state["second_via_ring"]  # Hardware path after discovery.


def test_udp_template_blocks_spoofed_source():
    from repro.net.buf import prepend
    from repro.net.headers import Ipv4Header, PROTO_UDP
    from repro.protocols.udp import encode_datagram

    testbed, udp_a, udp_b = make_services("ethernet")

    def scenario():
        endpoint = yield from udp_a.bind(4000)
        # Forge a datagram claiming a different source port.
        udp = encode_datagram(4999, 53, b"spoof", IP_A, IP_B)
        packet = prepend(
            Ipv4Header(
                src=IP_A, dst=IP_B, protocol=PROTO_UDP,
                total_length=Ipv4Header.LENGTH + len(udp),
            ).pack(),
            udp,
        )
        from repro.testbed import MAC_B

        with pytest.raises(TemplateViolation):
            yield from testbed.host_a.netio.send(
                testbed.app_a, endpoint.channel, packet, link_dst=MAC_B
            )
        return True

    proc = testbed.spawn(scenario(), name="scenario")
    assert testbed.run(until=proc)


def test_udp_ignores_bytes_beyond_ip_total_length():
    """The IP header bounds the datagram: a 13-byte UDP datagram behind a
    header claiming ``total_length`` 28 (eight bytes of UDP) is cut to
    eight bytes, which cannot hold what its UDP length claims, so the
    endpoint drops it instead of delivering ``b"hello"``.  A
    ``total_length`` past the packet's end fails the IP header check."""
    from repro.net.headers import Ipv4Header, PROTO_UDP
    from repro.protocols.udp import encode_datagram
    from repro.testbed import MAC_B

    testbed, udp_a, udp_b = make_services("ethernet")
    got = []

    def server(endpoint):
        data, _ = yield from endpoint.recvfrom()
        got.append(data)

    def scenario():
        endpoint = yield from udp_b.bind(6000)
        testbed.spawn(server(endpoint), name="server")
        udp = encode_datagram(5000, 6000, b"hello", IP_A, IP_B).tobytes()
        for total_length in (Ipv4Header.LENGTH + 8, Ipv4Header.LENGTH + len(udp) + 1):
            header = Ipv4Header(
                src=IP_A, dst=IP_B, protocol=PROTO_UDP, total_length=total_length
            ).pack()
            yield from testbed.host_a.netio.kernel_send(header + udp, MAC_B)
        yield testbed.sim.timeout(0.1)
        return endpoint

    proc = testbed.spawn(scenario(), name="scenario")
    endpoint = testbed.run(until=proc)
    assert got == []
    assert endpoint.stats["received"] == 0
    assert endpoint.stats["bad_header"] == 2


def test_udp_port_conflict_via_registry():
    testbed, udp_a, udp_b = make_services("ethernet")
    udp_a2 = LibraryUdpService(
        testbed.host_a, testbed.host_a.create_task("app-a2"), testbed.registry_a
    )

    def scenario():
        yield from udp_a.bind(4100)
        with pytest.raises(OSError):
            yield from udp_a2.bind(4100)
        return True

    proc = testbed.spawn(scenario(), name="scenario")
    assert testbed.run(until=proc)


def test_udp_close_releases_port_without_linger():
    testbed, udp_a, udp_b = make_services("ethernet")

    def scenario():
        endpoint = yield from udp_a.bind(4200)
        yield from endpoint.close()
        yield testbed.sim.timeout(0.1)
        # Datagram ports are reusable immediately (no 2MSL).
        endpoint2 = yield from udp_a.bind(4200)
        return endpoint2 is not None

    proc = testbed.spawn(scenario(), name="scenario")
    assert testbed.run(until=proc)


def test_udp_app_crash_reclaims_port():
    testbed, udp_a, udp_b = make_services("ethernet")

    def scenario():
        yield from udp_a.bind(4300)
        testbed.app_a.terminate()
        yield testbed.sim.timeout(0.1)
        # A different app can claim the port now.
        other = LibraryUdpService(
            testbed.host_a,
            testbed.host_a.create_task("survivor"),
            testbed.registry_a,
        )
        endpoint = yield from other.bind(4300)
        return endpoint is not None

    proc = testbed.spawn(scenario(), name="scenario")
    assert testbed.run(until=proc)


def test_udp_coexists_with_tcp_on_same_hosts():
    """The paper's co-existence story: both libraries, same app."""
    testbed, udp_a, udp_b = make_services("ethernet")
    got = {}

    def tcp_server():
        listener = yield from testbed.service_b.listen(8080)
        conn = yield from listener.accept()
        got["tcp"] = yield from conn.recv_exactly(9)

    def udp_server():
        endpoint = yield from udp_b.bind(8081)
        data, _ = yield from endpoint.recvfrom()
        got["udp"] = data

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 8080)
        endpoint = yield from udp_a.bind(0)
        yield from conn.send(b"tcp bytes")
        yield from endpoint.sendto(IP_B, 8081, b"udp bytes")
        yield testbed.sim.timeout(0.5)

    testbed.spawn(tcp_server(), name="tcp-server")
    testbed.spawn(udp_server(), name="udp-server")
    proc = testbed.spawn(client(), name="client")
    testbed.run(until=proc)
    assert got["tcp"] == b"tcp bytes"
    assert got["udp"] == b"udp bytes"
