"""RRP over the user-level UDP library: the paper's two protocol
species — byte-stream and request/response — running as co-existing
user-level libraries on the same hosts."""

import pytest

from repro.net.faults import FaultInjector
from repro.org.udplib import LibraryUdpService, run_rrp
from repro.protocols.rrp import RrpClient, RrpServer
from repro.testbed import IP_B, Testbed


def udp_services(testbed):
    return (
        LibraryUdpService(testbed.host_a, testbed.app_a, testbed.registry_a),
        LibraryUdpService(testbed.host_b, testbed.app_b, testbed.registry_b),
    )


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_rrp_call_over_udplib(network):
    testbed = Testbed(network=network, organization="userlib")
    udp_a, udp_b = udp_services(testbed)
    results = {}

    def scenario():
        server = RrpServer(lambda req: b"answered:" + req)
        run_rrp((yield from udp_b.bind(6100)), server)
        call = run_rrp((yield from udp_a.bind(0)), RrpClient())
        for i in range(3):
            results[i] = yield from call(IP_B, 6100, f"q{i}".encode())
        results["executed"] = server.stats["executed"]

    proc = testbed.spawn(scenario(), name="scenario")
    testbed.run(until=proc)
    assert results[0] == b"answered:q0"
    assert results[2] == b"answered:q2"
    assert results["executed"] == 3


def test_rrp_at_most_once_under_loss():
    """Drop some requests and responses: retransmission completes the
    call, the handler still runs exactly once per transaction."""
    testbed = Testbed(
        network="ethernet",
        organization="userlib",
        faults=FaultInjector(drop_rate=0.25, seed=13),
    )
    udp_a, udp_b = udp_services(testbed)
    executions = []
    results = {}

    def scenario():
        server = RrpServer(
            lambda req: (executions.append(req) or b"ok:" + req)
        )
        client = RrpClient(timeout=0.3, retries=10)
        run_rrp((yield from udp_b.bind(6200)), server)
        call = run_rrp((yield from udp_a.bind(0)), client)
        for i in range(4):
            results[i] = yield from call(IP_B, 6200, f"tx{i}".encode())
        results["stats"] = dict(client.stats)

    proc = testbed.spawn(scenario(), name="scenario")
    testbed.run(until=proc)
    for i in range(4):
        assert results[i] == f"ok:tx{i}".encode()
    # Each transaction executed exactly once despite retransmissions.
    assert sorted(executions) == sorted(f"tx{i}".encode() for i in range(4))
    assert results["stats"]["retransmits"] >= 1  # Loss really bit.


def test_rrp_latency_beats_tcp_setup():
    """The motivation quantified: one RRP exchange completes in less
    time than a TCP connect() alone (no handshake, no registry work)."""
    testbed = Testbed(network="ethernet", organization="userlib")
    udp_a, udp_b = udp_services(testbed)
    timings = {}

    def scenario():
        run_rrp((yield from udp_b.bind(6300)), RrpServer(lambda req: b"r"))
        call = run_rrp((yield from udp_a.bind(0)), RrpClient())
        # Warm ARP so both measurements start level.
        yield from testbed.host_a.resolve_link(IP_B)
        start = testbed.sim.now
        yield from call(IP_B, 6300, b"quick")
        timings["rrp"] = testbed.sim.now - start

        start = testbed.sim.now
        yield from testbed.service_a.connect(IP_B, 6301)
        timings["tcp_setup"] = testbed.sim.now - start

    def tcp_server():
        listener = yield from testbed.service_b.listen(6301)
        yield from listener.accept()

    testbed.spawn(tcp_server(), name="tcp-server")
    proc = testbed.spawn(scenario(), name="scenario")
    testbed.run(until=proc)
    # An RRP round trip is a couple of datagram times; TCP setup pays
    # the whole registry path (Table 4: ~12 ms).
    assert timings["rrp"] < 0.005
    assert timings["rrp"] < timings["tcp_setup"] / 2
